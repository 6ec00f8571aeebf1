package search_test

import (
	"fmt"
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/scoring"
	"fastlsa/internal/search"
	"fastlsa/internal/seq"
	"fastlsa/internal/significance"
	"fastlsa/internal/stats"
)

// buildDB creates a database of unrelated sequences with one planted
// homolog of the query at the given index.
func buildDB(t *testing.T, query *seq.Sequence, size, homologAt int) []*seq.Sequence {
	t.Helper()
	db := make([]*seq.Sequence, size)
	for i := range db {
		db[i] = seq.Random(fmt.Sprintf("db%d", i), 400+i%100, seq.DNA, 5000+int64(i))
	}
	hom, err := (seq.MutationModel{SubstitutionRate: 0.06, InsertionRate: 0.01, DeletionRate: 0.01, MaxIndelRun: 3, IndelExtend: 0.3}).Mutate("homolog", query, 999)
	if err != nil {
		t.Fatal(err)
	}
	// Embed the homolog inside background sequence.
	flank := seq.Random("", 150, seq.DNA, 888).String()
	db[homologAt] = seq.MustNew("homolog", flank+hom.String()+flank, seq.DNA)
	return db
}

func baseOpts() search.Options {
	return search.Options{
		Matrix:   scoring.DNASimple,
		Gap:      scoring.Linear(-12),
		TopK:     5,
		Workers:  1,
		Pairwise: core.Options{Workers: 1},
	}
}

func TestQueryFindsPlantedHomolog(t *testing.T) {
	query := seq.Random("query", 300, seq.DNA, 77)
	db := buildDB(t, query, 30, 17)
	hits, err := search.Query(query, db, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].ID != "homolog" || hits[0].Index != 17 {
		t.Fatalf("top hit %+v, want the planted homolog at 17", hits[0])
	}
	if hits[0].Score < 300*5*6/10 {
		t.Fatalf("homolog score %d suspiciously low", hits[0].Score)
	}
	// Ranked descending.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted")
		}
	}
	// The top hit carries a reconstructed alignment matching its score.
	if hits[0].Alignment == nil || hits[0].Alignment.Score != hits[0].Score {
		t.Fatalf("top alignment missing or inconsistent: %+v", hits[0].Alignment)
	}
}

func TestQueryParallelMatchesSequential(t *testing.T) {
	query := seq.Random("query", 250, seq.DNA, 78)
	db := buildDB(t, query, 24, 5)
	seqHits, err := search.Query(query, db, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16, 100} {
		opt := baseOpts()
		opt.Workers = w
		parHits, err := search.Query(query, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(parHits) != len(seqHits) {
			t.Fatalf("workers=%d: %d hits vs %d", w, len(parHits), len(seqHits))
		}
		for i := range parHits {
			if parHits[i].Index != seqHits[i].Index || parHits[i].Score != seqHits[i].Score {
				t.Fatalf("workers=%d: hit %d differs", w, i)
			}
		}
	}
}

func TestQueryEValues(t *testing.T) {
	params, err := significance.Estimate(scoring.DNASimple, scoring.Linear(-12), significance.Options{
		SampleLen: 120, Samples: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	query := seq.Random("query", 300, seq.DNA, 79)
	db := buildDB(t, query, 20, 3)
	opt := baseOpts()
	opt.Stats = &params
	hits, err := search.Query(query, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].ID != "homolog" {
		t.Fatalf("top hit %v", hits[0])
	}
	if hits[0].EValue > 1e-6 {
		t.Fatalf("homolog E-value %g not significant", hits[0].EValue)
	}
	if hits[0].BitScore <= 0 {
		t.Fatalf("bit score %g", hits[0].BitScore)
	}
	// E-value filter keeps only the real hit.
	opt.MaxEValue = 1e-3
	filtered, err := search.Query(query, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range filtered {
		if h.EValue > 1e-3 {
			t.Fatalf("hit %v above the E-value cutoff", h)
		}
	}
	if len(filtered) == 0 || filtered[0].ID != "homolog" {
		t.Fatalf("filter lost the homolog: %v", filtered)
	}
}

func TestQueryOptionsValidation(t *testing.T) {
	q := seq.Random("q", 50, seq.DNA, 1)
	db := []*seq.Sequence{seq.Random("d", 50, seq.DNA, 2)}
	if _, err := search.Query(q, db, search.Options{}); err == nil {
		t.Fatal("missing matrix must fail")
	}
	opt := baseOpts()
	opt.Gap = scoring.Affine(-5, -1)
	if _, err := search.Query(q, db, opt); err == nil {
		t.Fatal("affine must be rejected")
	}
	empty := seq.MustNew("e", "", seq.DNA)
	if _, err := search.Query(empty, db, baseOpts()); err == nil {
		t.Fatal("empty query must fail")
	}
	hits, err := search.Query(q, nil, baseOpts())
	if err != nil || hits != nil {
		t.Fatalf("empty db: %v %v", hits, err)
	}
	opt = baseOpts()
	opt.MaxEValue = 1
	if _, err := search.Query(q, db, opt); err == nil {
		t.Fatal("MaxEValue without Stats must fail")
	}
}

func TestQueryTopKAndAlignments(t *testing.T) {
	query := seq.Random("query", 200, seq.DNA, 80)
	db := buildDB(t, query, 40, 9)
	opt := baseOpts()
	opt.TopK = 3
	opt.Alignments = 1
	var c stats.Counters
	opt.Counters = &c
	hits, err := search.Query(query, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > 3 {
		t.Fatalf("%d hits exceed TopK", len(hits))
	}
	if hits[0].Alignment == nil {
		t.Fatal("first hit must carry an alignment")
	}
	for _, h := range hits[1:] {
		if h.Alignment != nil {
			t.Fatal("only the first hit should carry an alignment")
		}
	}
	if c.Cells.Load() == 0 {
		t.Fatal("scan cells not counted")
	}
}

func TestQueryMinScore(t *testing.T) {
	query := seq.Random("query", 200, seq.DNA, 81)
	db := buildDB(t, query, 15, 2)
	opt := baseOpts()
	opt.MinScore = 500 // only the homolog clears this
	hits, err := search.Query(query, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "homolog" {
		t.Fatalf("MinScore filter: %v", hits)
	}
}

// TestQueryCellCount pins a search's exact DP work: one forward scan per
// verified entry, then per reconstructed hit only the reverse scan over the
// prefixes ending at the carried end cell and FastLSA's global solve of the
// delimited substrings. A second forward scan per hit would add |q|·|entry|.
func TestQueryCellCount(t *testing.T) {
	query := seq.Random("query", 300, seq.DNA, 77)
	db := buildDB(t, query, 12, 5)
	opt := baseOpts()
	opt.TopK = 3
	var c stats.Counters
	opt.Counters = &c
	hits, err := search.Query(query, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, e := range db {
		want += int64(query.Len()) * int64(e.Len())
	}
	for _, h := range hits {
		al := h.Alignment
		want += int64(al.EndA) * int64(al.EndB)
		var fc stats.Counters
		subA, subB := query.Slice(al.StartA, al.EndA), db[h.Index].Slice(al.StartB, al.EndB)
		if _, err := core.Align(subA, subB, opt.Matrix, opt.Gap, core.Options{Workers: 1, Counters: &fc}); err != nil {
			t.Fatal(err)
		}
		want += fc.Cells.Load()
	}
	if got := c.Cells.Load(); got != want {
		t.Fatalf("search computed %d cells, want %d (verify + reverse scans + FastLSA)", got, want)
	}
}
