package fastlsa_test

import (
	"fmt"
	"testing"

	"fastlsa"
)

func TestFacadeSearch(t *testing.T) {
	query := fastlsa.RandomSequence("query", 250, fastlsa.DNA, 301)
	hom, err := fastlsa.DefaultHomology.Mutate("homolog", query, 302)
	if err != nil {
		t.Fatal(err)
	}
	db := []*fastlsa.Sequence{hom}
	for i := 0; i < 12; i++ {
		db = append(db, fastlsa.RandomSequence(fmt.Sprintf("bg%d", i), 300, fastlsa.DNA, 400+int64(i)))
	}

	params, err := fastlsa.EstimateStatistics(fastlsa.DNASimple, fastlsa.Linear(-12), 120, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := fastlsa.Search(query, db, fastlsa.SearchOptions{
		Matrix:  fastlsa.DNASimple,
		Gap:     fastlsa.Linear(-12),
		TopK:    5,
		Stats:   &params,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ID != "homolog" {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].EValue > 1e-6 {
		t.Fatalf("homolog e-value %g", hits[0].EValue)
	}
	if hits[0].Alignment == nil {
		t.Fatal("top hit missing alignment")
	}
	// Zero-gap default and missing matrix validation.
	if _, err := fastlsa.Search(query, db, fastlsa.SearchOptions{}); err == nil {
		t.Fatal("missing matrix must fail")
	}
	hits2, err := fastlsa.Search(query, db, fastlsa.SearchOptions{Matrix: fastlsa.DNASimple, TopK: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits2) == 0 || hits2[0].ID != "homolog" {
		t.Fatalf("default-gap search: %v", hits2)
	}
}

func TestFacadeEstimateStatisticsErrors(t *testing.T) {
	if _, err := fastlsa.EstimateStatistics(fastlsa.DNASimple, fastlsa.Affine(-5, -1), 0, 0, 1); err == nil {
		t.Fatal("affine must be rejected")
	}
	if _, err := fastlsa.EstimateStatistics(fastlsa.DNASimple, fastlsa.Linear(-1), 100, 20, 1); err == nil {
		t.Fatal("linear-phase scoring must be rejected")
	}
}

// TestSearchAlignmentsMatchAlignLocal: every reconstructed hit carries
// exactly the alignment fastlsa.AlignLocal computes for the same pair, for
// brute-force and indexed searches alike. Reconstruction starts from the
// verify scan's end cell instead of rescanning, so this pins that the
// carried cell is the one AlignLocal's own forward scan finds.
func TestSearchAlignmentsMatchAlignLocal(t *testing.T) {
	query := fastlsa.RandomSequence("query", 200, fastlsa.DNA, 501)
	var db []*fastlsa.Sequence
	for i := 0; i < 24; i++ {
		if i%6 == 2 {
			hom, err := fastlsa.DefaultHomology.Mutate(fmt.Sprintf("hom%d", i), query, 600+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			db = append(db, hom)
			continue
		}
		db = append(db, fastlsa.RandomSequence(fmt.Sprintf("bg%d", i), 150+7*i, fastlsa.DNA, 700+int64(i)))
	}
	ix, err := fastlsa.BuildIndex(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []*fastlsa.Index{nil, ix} {
		hits, err := fastlsa.Search(query, db, fastlsa.SearchOptions{
			Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-12), TopK: 8, MinScore: 40, Workers: 2, Index: idx,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) < 4 {
			t.Fatalf("indexed=%v: %d hits, want the 4 planted homologs at least", idx != nil, len(hits))
		}
		for _, h := range hits {
			want, err := fastlsa.AlignLocal(query, db[h.Index], fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-12)})
			if err != nil {
				t.Fatal(err)
			}
			got := h.Alignment
			if got == nil || got.Score != want.Score || got.StartA != want.StartA || got.EndA != want.EndA ||
				got.StartB != want.StartB || got.EndB != want.EndB || !got.Path.Equal(want.Path) {
				t.Fatalf("indexed=%v hit %s: alignment %+v, AlignLocal %+v", idx != nil, h.ID, got, want)
			}
		}
	}
}
