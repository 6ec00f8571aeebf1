package index_test

import (
	"fmt"
	"testing"

	"fastlsa/internal/index"
	"fastlsa/internal/seq"
)

func homologModel(d float64) seq.MutationModel {
	return seq.MutationModel{
		SubstitutionRate: d,
		InsertionRate:    d / 10,
		DeletionRate:     d / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}
}

// TestEstimateIdentityTracksDivergence checks the estimator's ordering and
// coarse calibration: identical pairs estimate 1, high-identity pairs
// estimate high, divergent pairs estimate low, and the estimate decreases
// as planted divergence grows.
func TestEstimateIdentityTracksDivergence(t *testing.T) {
	type level struct {
		d        float64
		min, max float64
	}
	// The f^(1/q) back-conversion is biased low on indel-bearing pairs
	// (indels shift frames, breaking q grams per event), so the bands are
	// deliberately wide; the router only needs a coarse signal.
	levels := []level{
		{0, 0.999, 1.0},
		{0.01, 0.93, 1.0},
		{0.05, 0.85, 0.99},
		{0.30, 0.0, 0.85},
		// Chance 8-gram collisions alone would floor the raw shared
		// fraction near (window grams)/4^8; the estimator subtracts that
		// background, so deeply divergent pairs must estimate well below
		// the routing threshold instead of riding the floor.
		{0.60, 0.0, 0.70},
	}
	prev := 2.0
	for _, lv := range levels {
		t.Run(fmt.Sprintf("div=%.2f", lv.d), func(t *testing.T) {
			a, b, err := seq.HomologousPair(4000, seq.DNA, homologModel(lv.d), 11)
			if err != nil {
				t.Fatal(err)
			}
			id, ok := index.EstimateIdentity(a, b, 0)
			if !ok {
				t.Fatal("no estimate")
			}
			if id < lv.min || id > lv.max {
				t.Fatalf("divergence %.2f estimated identity %.3f, want [%.2f, %.2f]", lv.d, id, lv.min, lv.max)
			}
			if id > prev {
				t.Fatalf("estimate %.3f not monotone (previous level %.3f)", id, prev)
			}
			prev = id
		})
	}
}

func TestEstimateIdentityUnrelated(t *testing.T) {
	// Longer pairs fill more of the 4^8 code space with chance collisions,
	// so before the background correction the estimate grew with length
	// (an unrelated 8k pair estimated 0.76 — above the 0.75 routing
	// threshold, sending random pairs to the wavefront kernel's worst
	// case). Every length must stay far below the threshold now.
	for _, n := range []int{2000, 8000, 50_000} {
		a := seq.Random("a", n, seq.DNA, 1)
		b := seq.Random("b", n, seq.DNA, 999)
		id, ok := index.EstimateIdentity(a, b, 0)
		if !ok {
			t.Fatalf("n=%d: no estimate", n)
		}
		if id > 0.5 {
			t.Fatalf("unrelated n=%d pair estimated identity %.3f", n, id)
		}
	}
}

func TestEstimateIdentityUnestimable(t *testing.T) {
	short, err := seq.New("s", "ACG", seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	long := seq.Random("l", 100, seq.DNA, 3)
	prot := seq.Random("p", 100, seq.Protein, 4)
	if _, ok := index.EstimateIdentity(short, long, 0); ok {
		t.Fatal("sub-gram sequence should not estimate")
	}
	if _, ok := index.EstimateIdentity(long, prot, 0); ok {
		t.Fatal("mismatched alphabets should not estimate")
	}
	if _, ok := index.EstimateIdentity(nil, long, 0); ok {
		t.Fatal("nil sequence should not estimate")
	}
	if _, ok := index.EstimateIdentity(long, long, 64); ok {
		t.Fatal("oversized gram universe should not estimate")
	}
}

func TestEstimateIdentityLongInputsBounded(t *testing.T) {
	// Longer than the sampling window on both sides: the estimator must
	// still answer (from the windows) and stay fast.
	a, b, err := seq.HomologousPair(3_000_000, seq.DNA, homologModel(0.02), 5)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := index.EstimateIdentity(a, b, 0)
	if !ok {
		t.Fatal("no estimate")
	}
	if id < 0.9 {
		t.Fatalf("high-identity long pair estimated %.3f", id)
	}
}
