package seq_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"fastlsa/internal/seq"
)

func TestNewValidates(t *testing.T) {
	if _, err := seq.New("x", "ACGT", seq.DNA); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.New("x", "acgt", seq.DNA); err != nil {
		t.Fatalf("lowercase must canonicalise: %v", err)
	}
	if _, err := seq.New("x", "ACGU", seq.DNA); err == nil {
		t.Fatal("U must be rejected by the DNA alphabet")
	}
	if _, err := seq.New("x", "MKWV", seq.Protein); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.New("x", "MKZ", seq.Protein); err == nil {
		t.Fatal("Z must be rejected by the protein alphabet")
	}
	s := seq.MustNew("x", "acgt", seq.DNA)
	if s.String() != "ACGT" {
		t.Fatalf("canonical form = %q", s.String())
	}
}

func TestAlphabet(t *testing.T) {
	if seq.DNA.Size() != 4 || seq.Protein.Size() != 20 {
		t.Fatalf("alphabet sizes: dna=%d protein=%d", seq.DNA.Size(), seq.Protein.Size())
	}
	if seq.DNA.Index('C') != 1 || seq.DNA.Index('c') != 1 {
		t.Fatal("Index must be case-insensitive")
	}
	if seq.DNA.Index('X') != -1 {
		t.Fatal("Index of a non-member must be -1")
	}
	if _, err := seq.NewAlphabet("dup", "AAB"); err == nil {
		t.Fatal("duplicate letters must be rejected")
	}
	if _, err := seq.NewAlphabet("empty", ""); err == nil {
		t.Fatal("empty alphabet must be rejected")
	}
	if a, err := seq.ParseAlphabet("protein"); err != nil || a != seq.Protein {
		t.Fatalf("ParseAlphabet(protein) = %v, %v", a, err)
	}
	if _, err := seq.ParseAlphabet("rna"); err == nil {
		t.Fatal("unknown alphabet name must be rejected")
	}
}

func TestSlice(t *testing.T) {
	s := seq.MustNew("x", "ACGTT", seq.DNA)
	sub := s.Slice(1, 4)
	if sub.String() != "CGT" {
		t.Fatalf("slice = %q", sub.String())
	}
}

func TestFASTARoundTrip(t *testing.T) {
	a := seq.MustNew("chr1", strings.Repeat("ACGT", 100), seq.DNA)
	b := seq.MustNew("chr2", "GGGCCCAT", seq.DNA)
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, 60, a, b); err != nil {
		t.Fatal(err)
	}
	got, err := seq.ReadFASTA(&buf, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	if got[0].ID != "chr1" || !seq.Equal(got[0], a) {
		t.Fatalf("record 0 mismatch: %s", got[0].ID)
	}
	if got[1].ID != "chr2" || !seq.Equal(got[1], b) {
		t.Fatalf("record 1 mismatch: %s", got[1].ID)
	}
}

func TestFASTAParsing(t *testing.T) {
	in := ">id1 description here\nACGT\nacgt\n\n; legacy comment\n>id2\nTTTT\n"
	got, err := seq.ReadFASTA(strings.NewReader(in), seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "id1" || got[0].String() != "ACGTACGT" || got[1].String() != "TTTT" {
		t.Fatalf("parsed %v", got)
	}

	bad := []string{
		"ACGT\n",      // data before header
		">\nACGT\n",   // empty header
		">ok\nACGU\n", // invalid residue
		"",            // no records
		">lonely header junkless\n>second\nAC\n>third\nGG\nXX\n", // invalid at end
	}
	for _, in := range bad {
		if _, err := seq.ReadFASTA(strings.NewReader(in), seq.DNA); err == nil {
			t.Fatalf("input %q must fail", in)
		}
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := seq.Random("r", 500, seq.Protein, 42)
	b := seq.Random("r", 500, seq.Protein, 42)
	c := seq.Random("r", 500, seq.Protein, 43)
	if !seq.Equal(a, b) {
		t.Fatal("same seed must reproduce the sequence")
	}
	if seq.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
	for _, ch := range a.Residues {
		if !seq.Protein.Contains(ch) {
			t.Fatalf("letter %q outside alphabet", ch)
		}
	}
}

func TestRandomWeighted(t *testing.T) {
	w := []float64{8, 0, 0, 2} // A-heavy, no C/G
	s, err := seq.RandomWeighted("w", 4000, seq.DNA, w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c, g := strings.Count(s.String(), "C"), strings.Count(s.String(), "G"); c != 0 || g != 0 {
		t.Fatalf("zero-weight letters appeared: %d C, %d G", c, g)
	}
	if frac := float64(strings.Count(s.String(), "A")) / 4000; frac < 0.7 || frac > 0.9 {
		t.Fatalf("A fraction %.2f far from 0.8", frac)
	}
	if _, err := seq.RandomWeighted("w", 10, seq.DNA, []float64{1, 2}, 1); err == nil {
		t.Fatal("wrong weight count must fail")
	}
	if _, err := seq.RandomWeighted("w", 10, seq.DNA, []float64{-1, 1, 1, 1}, 1); err == nil {
		t.Fatal("negative weight must fail")
	}
	if _, err := seq.RandomWeighted("w", 10, seq.DNA, []float64{0, 0, 0, 0}, 1); err == nil {
		t.Fatal("zero-sum weights must fail")
	}
}

func TestMutationModel(t *testing.T) {
	ref := seq.Random("ref", 2000, seq.DNA, 21)
	mut, err := seq.DefaultHomology.Mutate("mut", ref, 22)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Equal(ref, mut) {
		t.Fatal("default model should perturb the sequence")
	}
	// Length stays in the same ballpark (indel rates are symmetric).
	if mut.Len() < ref.Len()*3/4 || mut.Len() > ref.Len()*5/4 {
		t.Fatalf("mutated length %d far from %d", mut.Len(), ref.Len())
	}
	// Identity mutation model is the identity function.
	id, err := seq.MutationModel{}.Mutate("id", ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(ref, id) {
		t.Fatal("zero-rate model must return the reference unchanged")
	}
	// Invalid rates fail.
	if _, err := (seq.MutationModel{SubstitutionRate: 1.5}).Mutate("x", ref, 1); err != nil {
		// expected
	} else {
		t.Fatal("rate > 1 must fail")
	}
}

func TestMutationDeterminism(t *testing.T) {
	ref := seq.Random("ref", 300, seq.Protein, 5)
	a, err := seq.DefaultHomology.Mutate("a", ref, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := seq.DefaultHomology.Mutate("b", ref, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("mutation must be deterministic for a fixed seed")
	}
}

// TestMutatePreservesAlphabet is a quick property: mutated output stays in
// the reference alphabet for arbitrary seeds.
func TestMutatePreservesAlphabet(t *testing.T) {
	ref := seq.Random("ref", 200, seq.DNA, 1)
	f := func(seed int64) bool {
		m, err := seq.DefaultHomology.Mutate("m", ref, seed)
		if err != nil {
			return false
		}
		for _, c := range m.Residues {
			if !seq.DNA.Contains(c) {
				return false
			}
		}
		return m.Len() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHomologousPair(t *testing.T) {
	a, b, err := seq.HomologousPair(400, seq.DNA, seq.DefaultHomology, 31)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 400 || b.Len() == 0 {
		t.Fatalf("lengths %d, %d", a.Len(), b.Len())
	}
}

// TestMutateEmptyReference: an empty reference gives an empty mutant, not
// a panic, even under a channel that deletes everything.
func TestMutateEmptyReference(t *testing.T) {
	a, b, err := seq.HomologousPair(0, seq.DNA, seq.DefaultHomology, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 0 || b.Len() != 0 {
		t.Fatalf("lengths %d, %d, want 0, 0", a.Len(), b.Len())
	}
	m, err := seq.MutationModel{DeletionRate: 1}.Mutate("m", a, 1)
	if err != nil || m.Len() != 0 {
		t.Fatalf("all-deleting channel on an empty reference: %v, %v", m, err)
	}
}
