package kernel_test

import (
	"fmt"
	"slices"
	"testing"

	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// proteinDivergence20 mutates protein pairs the way the served
// align-parallel-protein traffic does: 20% substitutions, 2% insertions and
// 2% deletions in runs of up to 4.
var proteinDivergence20 = seq.MutationModel{
	SubstitutionRate: 0.2,
	InsertionRate:    0.02,
	DeletionRate:     0.02,
	MaxIndelRun:      4,
	IndelExtend:      0.5,
}

// benchSweep times one sweep direction over x vs y with end-gap edges,
// reporting bytes/s as cells/s.
func benchSweep(b *testing.B, x, y []byte, m *scoring.Matrix, mod kernel.Model, backward bool) {
	k := kernel.New(m, mod, memory.NewRowPool(), nil)
	top := k.LeadEdge(len(y), 0)
	left := k.LeadEdge(len(x), 0)
	out := k.NewEdge(len(y))
	sweep := k.Forward
	if backward {
		// Trailing-gap boundaries: the leading-gap edges read back to front.
		for _, e := range []kernel.Edge{top, left} {
			slices.Reverse(e.H)
			slices.Reverse(e.G)
		}
		sweep = k.Backward
	}
	b.SetBytes(int64(len(x)) * int64(len(y)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep(x, y, top, left, out, kernel.Edge{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardAffine measures the three-plane sweep in cells/second —
// the inner loop of every affine aligner in the repository — over an
// unrelated random pair.
func BenchmarkForwardAffine(b *testing.B) {
	x, y := testutil.RandomPair(1024, 1024, seq.Protein, 8)
	benchSweep(b, x.Residues, y.Residues, scoring.BLOSUM62, kernel.Affine(-11, -1), false)
}

// BenchmarkForwardAffineHomologous is the three-plane sweep over a pair
// shaped like the served protein traffic: BLOSUM62, affine -11/-1, ~1000
// residues at 20% divergence, about one parallel fill tile.
func BenchmarkForwardAffineHomologous(b *testing.B) {
	x, y, err := seq.HomologousPair(1000, seq.Protein, proteinDivergence20, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchSweep(b, x.Residues, y.Residues, scoring.BLOSUM62, kernel.Affine(-11, -1), false)
}

// BenchmarkForwardAffineWidth times the affine sweep over square blocks of
// the served protein shape at the widths that fix the packed sweep's
// crossover, scalar rows against packed strips.
func BenchmarkForwardAffineWidth(b *testing.B) {
	for _, w := range []int{94, 112, 128, 144, 160, 256, 750, 1000} {
		x, y, err := seq.HomologousPair(w, seq.Protein, proteinDivergence20, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []struct {
			name     string
			minWidth int
		}{{"scalar", 1 << 30}, {"packed", 0}} {
			b.Run(fmt.Sprintf("w=%d/%s", w, path.name), func(b *testing.B) {
				defer kernel.SetPackedMinWidth(path.minWidth)()
				benchSweep(b, x.Residues[:min(w, x.Len())], y.Residues[:min(w, y.Len())], scoring.BLOSUM62, kernel.Affine(-11, -1), false)
			})
		}
	}
}

// BenchmarkForwardLinear is the single-plane counterpart, pinning that the
// unified kernel keeps the linear fast path allocation-free once edges are
// pooled.
func BenchmarkForwardLinear(b *testing.B) {
	x, y := testutil.RandomPair(1024, 1024, seq.DNA, 8)
	benchSweep(b, x.Residues, y.Residues, scoring.DNASimple, kernel.Linear(-4), false)
}

// BenchmarkBackwardAffine and BenchmarkBackwardLinear time the suffix
// sweeps Hirschberg's split step pairs with Forward.
func BenchmarkBackwardAffine(b *testing.B) {
	x, y := testutil.RandomPair(1024, 1024, seq.Protein, 8)
	benchSweep(b, x.Residues, y.Residues, scoring.BLOSUM62, kernel.Affine(-11, -1), true)
}

func BenchmarkBackwardLinear(b *testing.B) {
	x, y := testutil.RandomPair(1024, 1024, seq.DNA, 8)
	benchSweep(b, x.Residues, y.Residues, scoring.DNASimple, kernel.Linear(-4), true)
}
