package backend_test

import (
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

func routerModel(d float64) seq.MutationModel {
	return seq.MutationModel{
		SubstitutionRate: d,
		InsertionRate:    d / 10,
		DeletionRate:     d / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}
}

// TestDecide pins every routing rule (docs/BACKENDS.md), including the two
// acceptance anchors: a ≥95%-identity DNA pair routes to WFA and a
// ≤70%-identity pair routes to FastLSA.
func TestDecide(t *testing.T) {
	dna := scoring.DNASimple
	gap := scoring.Linear(-4)
	similar95A, similar95B, err := seq.HomologousPair(2000, seq.DNA, routerModel(0.03), 21)
	if err != nil {
		t.Fatal(err)
	}
	divergent70A, divergent70B, err := seq.HomologousPair(2000, seq.DNA, routerModel(0.30), 22)
	if err != nil {
		t.Fatal(err)
	}
	protA, protB, err := seq.HomologousPair(2000, seq.Protein, routerModel(0.03), 23)
	if err != nil {
		t.Fatal(err)
	}
	short := seq.Random("s", 32, seq.DNA, 24)

	tests := []struct {
		name           string
		a, b           *seq.Sequence
		matrix         *scoring.Matrix
		gap            scoring.Gap
		mode           align.Mode
		explicitParams bool
		wantBackend    string
		wantReason     string
	}{
		{
			name: "low-divergence-to-wfa", a: similar95A, b: similar95B,
			matrix: dna, gap: gap,
			wantBackend: backend.NameWFA, wantReason: backend.ReasonLowDivergence,
		},
		{
			name: "low-divergence-affine-to-wfa", a: similar95A, b: similar95B,
			matrix: dna, gap: scoring.Affine(-6, -2),
			wantBackend: backend.NameWFA, wantReason: backend.ReasonLowDivergence,
		},
		{
			name: "high-divergence-to-fastlsa", a: divergent70A, b: divergent70B,
			matrix: dna, gap: gap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonHighDivergence,
		},
		{
			name: "ends-free-to-fastlsa", a: similar95A, b: similar95B,
			matrix: dna, gap: gap, mode: align.Overlap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonEndsFree,
		},
		{
			name: "explicit-params-to-fastlsa", a: similar95A, b: similar95B,
			matrix: dna, gap: gap, explicitParams: true,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonExplicitParams,
		},
		{
			name: "non-uniform-matrix-to-fastlsa", a: protA, b: protB,
			matrix: scoring.BLOSUM62, gap: gap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonIncompatibleScoring,
		},
		{
			name: "short-input-to-fastlsa", a: short, b: short,
			matrix: dna, gap: gap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonSmallInput,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := backend.Decide(tc.a, tc.b, tc.matrix, tc.gap, tc.mode, tc.explicitParams)
			if r.Backend != tc.wantBackend || r.Reason != tc.wantReason {
				t.Fatalf("routed to %s (%s), want %s (%s); identity estimate %.3f",
					r.Backend, r.Reason, tc.wantBackend, tc.wantReason, r.Identity)
			}
			if r.Reason == backend.ReasonLowDivergence && r.Identity < backend.RouteIdentityThreshold {
				t.Fatalf("WFA route with identity %.3f below threshold", r.Identity)
			}
			if _, ok := backend.Lookup(r.Backend); !ok {
				t.Fatalf("routed to unregistered backend %q", r.Backend)
			}
		})
	}
}

// TestDecideCrossover pins the threshold to the measured crossover on
// perfbench's divergence model (DNA +5/-4, linear -4): BiWFA beats FastLSA at
// 1% divergence and loses at 5% (E15), so a 1% pair must route to WFA and a
// 5% pair to FastLSA at both lengths.
func TestDecideCrossover(t *testing.T) {
	for _, n := range []int{1000, 3000} {
		for _, tc := range []struct {
			divergence  float64
			wantBackend string
			wantReason  string
		}{
			{0.01, backend.NameWFA, backend.ReasonLowDivergence},
			{0.05, backend.NameFastLSA, backend.ReasonHighDivergence},
		} {
			for seed := int64(1); seed <= 3; seed++ {
				a, b, err := seq.HomologousPair(n, seq.DNA, routerModel(tc.divergence), seed)
				if err != nil {
					t.Fatal(err)
				}
				r := backend.Decide(a, b, scoring.DNASimple, scoring.Linear(-4), align.Mode{}, false)
				if r.Backend != tc.wantBackend || r.Reason != tc.wantReason {
					t.Errorf("n=%d divergence %.2f seed %d: routed to %s (%s) at estimate %.3f, want %s (%s)",
						n, tc.divergence, seed, r.Backend, r.Reason, r.Identity, tc.wantBackend, tc.wantReason)
				}
			}
		}
	}
}
