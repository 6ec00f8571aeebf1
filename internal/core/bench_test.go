package core_test

import (
	"fmt"
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/hirschberg"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// BenchmarkAlignEngines compares the three engine families at one size —
// the per-package counterpart of the repository-level E4 target.
func BenchmarkAlignEngines(b *testing.B) {
	const n = 2000
	x, y := testutil.HomologousPair(n, seq.DNA, 100)
	gap := scoring.Linear(-4)
	m := scoring.DNASimple

	b.Run("fastlsa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Align(x, y, m, gap, core.Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fm.Align(x, y, m, gap, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fm-compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fm.AlignCompact(x, y, m, gap, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hirschberg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hirschberg.Align(x, y, m, gap, hirschberg.Options{}, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlignAffineEngines compares the affine (Gotoh-model) engines.
func BenchmarkAlignAffineEngines(b *testing.B) {
	const n = 1000
	x, y := testutil.HomologousPair(n, seq.Protein, 101)
	gap := scoring.Affine(-11, -1)
	m := scoring.BLOSUM62

	b.Run("fastlsa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Align(x, y, m, gap, core.Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gotoh-fm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fm.Align(x, y, m, gap, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("myers-miller", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hirschberg.Align(x, y, m, gap, hirschberg.Options{}, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaseCellsAblation sweeps the Base Case buffer: the DESIGN.md
// ablation for the "reserve BM up front" design choice.
func BenchmarkBaseCellsAblation(b *testing.B) {
	const n = 2000
	x, y := testutil.HomologousPair(n, seq.DNA, 102)
	for _, bm := range []int{64, 1024, 16384, 262144} {
		b.Run(fmt.Sprintf("bm%d", bm), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Align(x, y, scoring.DNASimple, scoring.Linear(-4), core.Options{
					K: 8, BaseCells: bm, Workers: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignLocalEngines compares full-matrix vs linear-space local
// alignment.
func BenchmarkAlignLocalEngines(b *testing.B) {
	const n = 1500
	x, y := testutil.HomologousPair(n, seq.DNA, 103)
	gap := scoring.Linear(-6)
	b.Run("sw-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fm.AlignLocal(x, y, scoring.DNASimple, gap, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("linear-space", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AlignLocal(x, y, scoring.DNASimple, gap, core.Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
