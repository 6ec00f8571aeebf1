package kernel_test

import (
	"fmt"
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

// benchSweep times Forward over x vs y with end-gap edges, reporting
// bytes/s as cells/s.
func benchSweep(b *testing.B, x, y []byte, m *scoring.Matrix, mod kernel.Model) {
	k := kernel.New(m, mod, memory.NewRowPool(), nil)
	top := k.LeadEdge(len(y), 0)
	left := k.LeadEdge(len(x), 0)
	out := k.NewEdge(len(y))
	b.SetBytes(int64(len(x)) * int64(len(y)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Forward(x, y, top, left, out, kernel.Edge{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardAffine measures the three-plane sweep in cells/second —
// the inner loop of every affine aligner in the repository — over an
// unrelated random pair.
func BenchmarkForwardAffine(b *testing.B) {
	x, y := testutil.RandomPair(1024, 1024, seq.Protein, 8)
	benchSweep(b, x.Residues, y.Residues, scoring.BLOSUM62, kernel.Affine(-11, -1))
}

// BenchmarkForwardAffineHomologous is the three-plane sweep over a pair
// shaped like the served protein traffic: BLOSUM62, affine -11/-1, ~1000
// residues at 20% divergence, about one parallel fill tile.
func BenchmarkForwardAffineHomologous(b *testing.B) {
	x, y, err := seq.HomologousPair(1000, seq.Protein, proteinDivergence20, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchSweep(b, x.Residues, y.Residues, scoring.BLOSUM62, kernel.Affine(-11, -1))
}

// dnaDivergence30 mutates DNA pairs the way the served jobs-durable
// traffic's most divergent rung does: 30% substitutions, 3% insertions and
// 3% deletions in runs of up to 4.
var dnaDivergence30 = seq.MutationModel{
	SubstitutionRate: 0.3,
	InsertionRate:    0.03,
	DeletionRate:     0.03,
	MaxIndelRun:      4,
	IndelExtend:      0.5,
}

// BenchmarkForwardWidth times Forward over square homologous blocks at the
// widths that fix the packed sweep's crossovers, scalar rows against
// packed strips, under each gap model's served shape: linear, the dna
// matrix with gap −4 over DNA (jobs-durable's FastLSA blocks are 50–200
// columns wide), and affine, BLOSUM62 −11/−1 over protein.
func BenchmarkForwardWidth(b *testing.B) {
	for _, g := range []struct {
		name   string
		m      *scoring.Matrix
		mod    kernel.Model
		div    seq.MutationModel
		widths []int
	}{
		{"linear", scoring.DNASimple, kernel.Linear(-4), dnaDivergence30, []int{50, 64, 80, 96, 125, 160, 200, 1024}},
		{"affine", scoring.BLOSUM62, kernel.Affine(-11, -1), proteinDivergence20, []int{94, 112, 128, 144, 160, 256, 750, 1000}},
	} {
		for _, w := range g.widths {
			x, y, err := seq.HomologousPair(w, g.m.Alphabet, g.div, 8)
			if err != nil {
				b.Fatal(err)
			}
			for _, path := range []struct {
				name     string
				minWidth int
			}{{"scalar", 1 << 30}, {"packed", 0}} {
				b.Run(fmt.Sprintf("%s/w=%d/%s", g.name, w, path.name), func(b *testing.B) {
					defer kernel.SetPackedMinWidth(path.minWidth)()
					benchSweep(b, x.Residues[:min(w, x.Len())], y.Residues[:min(w, y.Len())], g.m, g.mod)
				})
			}
		}
	}
}

// BenchmarkForwardLinear is the single-plane counterpart, pinning that the
// unified kernel keeps the linear fast path allocation-free once edges are
// pooled.
func BenchmarkForwardLinear(b *testing.B) {
	x, y := testutil.RandomPair(1024, 1024, seq.DNA, 8)
	benchSweep(b, x.Residues, y.Residues, scoring.DNASimple, kernel.Linear(-4))
}
