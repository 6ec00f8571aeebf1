package index_test

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"fastlsa/internal/index"
	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

func mustBuild(t *testing.T, db []*seq.Sequence, q int) *index.Index {
	t.Helper()
	ix, err := index.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildValidation(t *testing.T) {
	if _, err := index.Build(nil, 8); err == nil {
		t.Fatal("empty corpus must fail")
	}
	db := []*seq.Sequence{seq.Random("a", 50, seq.DNA, 1)}
	if _, err := index.Build(db, 1); err == nil {
		t.Fatal("q=1 must fail")
	}
	if _, err := index.Build(db, 20); err == nil {
		t.Fatal("4^20 grams must exceed the limit")
	}
	mixed := []*seq.Sequence{seq.Random("a", 50, seq.DNA, 1), seq.Random("b", 50, seq.Protein, 2)}
	if _, err := index.Build(mixed, 3); err == nil {
		t.Fatal("mixed alphabets must fail")
	}
	ix := mustBuild(t, db, 8)
	if ix.Entries() != 1 || ix.Q() != 8 {
		t.Fatalf("shape: entries=%d q=%d", ix.Entries(), ix.Q())
	}
	if ix.Postings() == 0 || ix.DistinctGrams() == 0 {
		t.Fatal("no postings recorded")
	}
}

func TestDefaultQ(t *testing.T) {
	if q := index.DefaultQ(seq.DNA); q != 8 {
		t.Fatalf("DNA default q = %d, want 8", q)
	}
	if q := index.DefaultQ(seq.Protein); q != 3 {
		t.Fatalf("protein default q = %d, want 3", q)
	}
	if q := index.DefaultQ(seq.DNAIUPAC); q != 4 {
		t.Fatalf("IUPAC default q = %d, want 4", q)
	}
}

func TestSharedGramCountsExactly(t *testing.T) {
	// Two identical sequences share every gram; the upper bound must allow
	// the perfect score and the probe must rank the identical entry first.
	s := seq.Random("s", 120, seq.DNA, 7)
	db := []*seq.Sequence{seq.Random("bg", 120, seq.DNA, 99), s.Clone()}
	ix := mustBuild(t, db, 8)
	cands, pr, err := ix.Candidates(s, scoring.DNASimple, scoring.Linear(-12), 400)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Scanned != 2 {
		t.Fatalf("scanned %d", pr.Scanned)
	}
	if len(cands) == 0 || cands[0].Entry != 1 {
		t.Fatalf("identical entry not ranked first: %+v", cands)
	}
	if want := 120 - 8 + 1; cands[0].Shared != want {
		t.Fatalf("identical entry shares %d grams, want %d", cands[0].Shared, want)
	}
	if cands[0].UpperBound < 5*120 {
		t.Fatalf("upper bound %d below the perfect score %d", cands[0].UpperBound, 5*120)
	}
}

func TestCandidatesPrunesShortEntries(t *testing.T) {
	// An entry too short to ever reach minScore must be pruned by the
	// length bound even though the seed floor is zero for it.
	q := seq.Random("q", 200, seq.DNA, 3)
	db := []*seq.Sequence{seq.Random("tiny", 10, seq.DNA, 4), q.Clone()}
	ix := mustBuild(t, db, 8)
	cands, pr, err := ix.Candidates(q, scoring.DNASimple, scoring.Linear(-12), 200)
	if err != nil {
		t.Fatal(err)
	}
	if pr.PrunedShort != 1 {
		t.Fatalf("short entry not pruned: %+v", pr)
	}
	for _, c := range cands {
		if c.Entry == 0 {
			t.Fatal("short entry survived")
		}
	}
}

// TestLemmaLossless is the core safety property: for random sequence pairs
// and sweeps of minScore, whenever the true local score reaches minScore the
// entry must survive the filter. This exercises MinSharedGrams and
// ScoreUpperBound against the real Smith-Waterman kernel.
func TestLemmaLossless(t *testing.T) {
	gap := scoring.Linear(-12)
	model := seq.MutationModel{SubstitutionRate: 0.04, InsertionRate: 0.01, DeletionRate: 0.01, MaxIndelRun: 4, IndelExtend: 0.4}
	for trial := 0; trial < 30; trial++ {
		n := 60 + trial*9%140
		query := seq.Random("q", n, seq.DNA, int64(1000+trial))
		var entry *seq.Sequence
		switch trial % 3 {
		case 0: // unrelated
			entry = seq.Random("e", n+trial%50, seq.DNA, int64(2000+trial))
		case 1: // homolog
			var err error
			entry, err = model.Mutate("e", query, int64(3000+trial))
			if err != nil {
				t.Fatal(err)
			}
		default: // partial overlap: homologous core with random flanks
			core, err := model.Mutate("c", query.Slice(n/4, 3*n/4), int64(4000+trial))
			if err != nil {
				t.Fatal(err)
			}
			flank := seq.Random("", 40, seq.DNA, int64(5000+trial)).String()
			entry = seq.MustNew("e", flank+core.String()+flank, seq.DNA)
		}
		score, _, _, err := kernel.New(scoring.DNASimple, kernel.FromGap(gap), nil, nil).LocalScore(query.Residues, entry.Residues)
		if err != nil {
			t.Fatal(err)
		}
		ix := mustBuild(t, []*seq.Sequence{entry}, 8)
		for _, minScore := range []int64{1, score / 2, score, score + 1, score * 2} {
			if minScore < 1 {
				continue
			}
			cands, _, err := ix.Candidates(query, scoring.DNASimple, gap, minScore)
			if err != nil {
				t.Fatal(err)
			}
			kept := len(cands) == 1
			if score >= minScore && !kept {
				t.Fatalf("trial %d: entry with score %d pruned at minScore %d (lossless violated)", trial, score, minScore)
			}
			if kept && cands[0].UpperBound < score {
				t.Fatalf("trial %d: upper bound %d below the true score %d", trial, cands[0].UpperBound, score)
			}
		}
	}
}

func TestSeedFloorPrunesBackground(t *testing.T) {
	// With a high threshold on an identity-dominant matrix, random
	// background must be pruned while a high-identity homolog survives.
	query := seq.Random("q", 300, seq.DNA, 11)
	model := seq.MutationModel{SubstitutionRate: 0.005, InsertionRate: 0.001, DeletionRate: 0.001, MaxIndelRun: 2, IndelExtend: 0.2}
	hom, err := model.Mutate("hom", query, 12)
	if err != nil {
		t.Fatal(err)
	}
	db := []*seq.Sequence{hom}
	for i := 0; i < 99; i++ {
		db = append(db, seq.Random(fmt.Sprintf("bg%d", i), 300, seq.DNA, int64(100+i)))
	}
	ix := mustBuild(t, db, 8)
	cands, pr, err := ix.Candidates(query, scoring.DNASimple, scoring.Linear(-12), 1400)
	if err != nil {
		t.Fatal(err)
	}
	if pr.SeedFloor <= 0 {
		t.Fatalf("seed floor %d not positive at minScore 1400", pr.SeedFloor)
	}
	found := false
	for _, c := range cands {
		if c.Entry == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("homolog pruned: %+v", pr)
	}
	if pr.Candidates > pr.Scanned/5 {
		t.Fatalf("filter kept %d of %d entries; expected strong pruning", pr.Candidates, pr.Scanned)
	}
}

func TestNonIdentityMatrixDisablesSeedPruning(t *testing.T) {
	// BLOSUM has positive off-diagonal scores: the lemma must declare
	// itself unusable and the filter must keep every long-enough entry.
	b := index.ScoringBound(scoring.BLOSUM62, seq.Protein, scoring.Linear(-12))
	if b.Usable {
		t.Fatal("BLOSUM must not be identity-dominant")
	}
	if f := index.MinSharedGrams(3, b, 100, 200); f != 0 {
		t.Fatalf("floor %d for an unusable bound, want 0", f)
	}
	query := seq.Random("q", 120, seq.Protein, 21)
	db := []*seq.Sequence{seq.Random("a", 120, seq.Protein, 22), seq.Random("b", 130, seq.Protein, 23)}
	ix := mustBuild(t, db, 3)
	cands, _, err := ix.Candidates(query, scoring.BLOSUM62, scoring.Linear(-12), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("unusable bound pruned entries: %d of 2 kept", len(cands))
	}
}

func TestScoringBound(t *testing.T) {
	b := index.ScoringBound(scoring.DNASimple, seq.DNA, scoring.Linear(-12))
	if !b.Usable || b.Match != 5 || b.ErrCost != 4 {
		t.Fatalf("DNASimple bound %+v, want match 5 errCost 4 usable", b)
	}
	b = index.ScoringBound(scoring.DNAStrict, seq.DNA, scoring.Linear(-2))
	if !b.Usable || b.Match != 1 || b.ErrCost != 1 {
		t.Fatalf("DNAStrict bound %+v", b)
	}
}

func TestCorpusNewAndLoad(t *testing.T) {
	seqs := make([]*seq.Sequence, 20)
	for i := range seqs {
		seqs[i] = seq.Random(fmt.Sprintf("s%d", i), 80, seq.DNA, int64(i))
	}
	c, err := index.New(seqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 20 || c.Index.Q() != 8 {
		t.Fatalf("corpus shape: len=%d q=%d", c.Len(), c.Index.Q())
	}

	path := t.TempDir() + "/corpus.fa"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteFASTA(f, 70, seqs...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.Load(path, seq.DNA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 20 || loaded.Path != path {
		t.Fatalf("loaded corpus: len=%d path=%q", loaded.Len(), loaded.Path)
	}
	if _, err := index.Load(t.TempDir()+"/missing.fa", seq.DNA, 0); err == nil {
		t.Fatal("missing corpus file must fail")
	}
}

// TestConcurrentProbes pins the advertised concurrency contract: an Index
// is immutable after Build, so concurrent Candidates calls must be
// race-free (run under -race in the CI search-service job) and, although
// they recycle shared-count accumulators, each must return exactly what the
// first probe of a freshly built index returns.
func TestConcurrentProbes(t *testing.T) {
	db := make([]*seq.Sequence, 64)
	for i := range db {
		db[i] = seq.Random(fmt.Sprintf("s%d", i), 150+i, seq.DNA, int64(10+i))
	}
	ix := mustBuild(t, db, 8)
	query := func(w, i int) *seq.Sequence {
		return seq.Random("q", 100+((w*20+i)%80), seq.DNA, int64(w*1000+i))
	}
	type probed struct {
		cands []index.Candidate
		probe index.Probe
	}
	want := make([][]probed, 8)
	for w := range want {
		for i := 0; i < 20; i++ {
			c, p, err := mustBuild(t, db, 8).Candidates(query(w, i), scoring.DNASimple, scoring.Linear(-12), int64(50+i))
			if err != nil {
				t.Fatal(err)
			}
			want[w] = append(want[w], probed{c, p})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c, p, err := ix.Candidates(query(w, i), scoring.DNASimple, scoring.Linear(-12), int64(50+i))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(probed{c, p}, want[w][i]) {
					t.Errorf("probe %d/%d: %+v %+v, fresh index %+v", w, i, c, p, want[w][i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
