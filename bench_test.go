package fastlsa_test

// One benchmark target per paper table/figure (experiment IDs E1-E9; see
// DESIGN.md §3). The cmd/fastlsa-bench harness prints the paper-style rows;
// these testing.B targets measure the same configurations under the Go
// benchmark framework and attach the experiment's key derived metric via
// b.ReportMetric:
//
//	E1  BenchmarkE1_Figure1Example     worked example latency
//	E2  BenchmarkE2_OpCounts           cells/op and recomputation factor
//	E3  (workload generation)          BenchmarkE3_WorkloadGen
//	E4  BenchmarkE4_Sequential         FM vs Hirschberg vs FastLSA by size
//	E5  BenchmarkE5_KSweep             effect of k
//	E6  BenchmarkE6_MemSweep           effect of the memory budget RM
//	E7  BenchmarkE7_Speedup            workers P (plus model speedup)
//	E8  BenchmarkE8_Efficiency         problem size at fixed P
//	E9  BenchmarkE9_TileSweep          k sweep (R = C = k tilings) / wavefront phases
//	E12 BenchmarkE12_Variants          full-matrix variants and accelerators
//	E13 BenchmarkE13_WFACrossover      FastLSA vs WFA by divergence
//
// Theorem checks (E11) are hard test assertions: go test -run Theorem ./...

import (
	"fmt"
	"testing"

	"fastlsa"
	"fastlsa/internal/bench"
	"fastlsa/internal/core"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

func benchPair(b *testing.B, n int, alpha *seq.Alphabet) (*seq.Sequence, *seq.Sequence) {
	b.Helper()
	x, y, err := seq.HomologousPair(n, alpha, seq.DefaultHomology, int64(n)*31)
	if err != nil {
		b.Fatal(err)
	}
	return x, y
}

func BenchmarkE1_Figure1Example(b *testing.B) {
	a, _ := fastlsa.NewSequence("a", "TDVLKAD", fastlsa.Table1Alphabet)
	t, _ := fastlsa.NewSequence("b", "TLDKLLKD", fastlsa.Table1Alphabet)
	opt := fastlsa.Options{Matrix: fastlsa.Table1, Gap: fastlsa.Linear(-10), Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		al, err := fastlsa.Align(a, t, opt)
		if err != nil || al.Score != 82 {
			b.Fatalf("score %v err %v", al, err)
		}
	}
}

func BenchmarkE2_OpCounts(b *testing.B) {
	const n = 2000
	x, y := benchPair(b, n, seq.DNA)
	area := float64(x.Len()) * float64(y.Len())
	for _, cfg := range []bench.Config{
		{Engine: bench.EngineFM},
		{Engine: bench.EngineHirschberg},
		{Engine: bench.EngineFastLSA, K: 2, BaseCells: 256},
		{Engine: bench.EngineFastLSA, K: 8, BaseCells: 256},
	} {
		name := string(cfg.Engine)
		if cfg.K != 0 {
			name = fmt.Sprintf("%s_k%d", name, cfg.K)
		}
		b.Run(name, func(b *testing.B) {
			var cells int64
			for i := 0; i < b.N; i++ {
				m := bench.Run(x, y, scoring.DNASimple, cfg)
				if m.Err != nil {
					b.Fatal(m.Err)
				}
				cells = m.Stats[stats.Cells]
			}
			b.ReportMetric(float64(cells), "cells/op")
			b.ReportMetric(float64(cells)/area, "recompute-factor")
		})
	}
}

func BenchmarkE3_WorkloadGen(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wl := bench.Workload{Name: "g", Length: n, Alphabet: seq.DNA, Seed: int64(i)}
				if _, _, err := wl.Generate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4_Sequential(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		x, y := benchPair(b, n, seq.DNA)
		for _, cfg := range []bench.Config{
			{Engine: bench.EngineFM},
			{Engine: bench.EngineHirschberg},
			{Engine: bench.EngineFastLSA, K: 8, BaseCells: core.DefaultBaseCells},
		} {
			b.Run(fmt.Sprintf("%s/n%d", cfg.Engine, n), func(b *testing.B) {
				var last bench.Measurement
				for i := 0; i < b.N; i++ {
					last = bench.Run(x, y, scoring.DNASimple, cfg)
					if last.Err != nil {
						b.Fatal(last.Err)
					}
				}
				b.ReportMetric(last.CellsPerSecond()/1e6, "Mcells/s")
			})
		}
	}
}

func BenchmarkE5_KSweep(b *testing.B) {
	const n = 2000
	x, y := benchPair(b, n, seq.DNA)
	area := float64(x.Len()) * float64(y.Len())
	for _, k := range []int{2, 3, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var cells int64
			for i := 0; i < b.N; i++ {
				m := bench.Run(x, y, scoring.DNASimple, bench.Config{
					Engine: bench.EngineFastLSA, K: k, BaseCells: 16 * 1024,
				})
				if m.Err != nil {
					b.Fatal(m.Err)
				}
				cells = m.Stats[stats.Cells]
			}
			b.ReportMetric(float64(cells)/area, "recompute-factor")
		})
	}
}

func BenchmarkE6_MemSweep(b *testing.B) {
	const n = 2000
	x, y := benchPair(b, n, seq.DNA)
	full := int64(x.Len()+1) * int64(y.Len()+1)
	for _, pct := range []int{120, 50, 10, 2} {
		budget := full * int64(pct) / 100
		opt, err := core.SuggestOptions(x.Len(), y.Len(), budget, 1)
		if err != nil {
			b.Fatalf("pct %d: %v", pct, err)
		}
		b.Run(fmt.Sprintf("budget%d%%", pct), func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				m := bench.Run(x, y, scoring.DNASimple, bench.Config{
					Engine: bench.EngineFastLSA, K: opt.K, BaseCells: opt.BaseCells, Budget: budget,
				})
				if m.Err != nil {
					b.Fatal(m.Err)
				}
				peak = m.PeakMem
			}
			b.ReportMetric(float64(peak), "peak-entries")
		})
	}
}

func BenchmarkE7_Speedup(b *testing.B) {
	const n = 2000
	x, y := benchPair(b, n, seq.DNA)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := bench.Run(x, y, scoring.DNASimple, bench.Config{
					Engine: bench.EngineFastLSA, K: 16, BaseCells: core.DefaultBaseCells, Workers: p,
				})
				if m.Err != nil {
					b.Fatal(m.Err)
				}
			}
			model := bench.ModelSpeedup(x.Len(), y.Len(), bench.ModelConfig{
				K: 16, BaseCells: core.DefaultBaseCells, Workers: p,
			})
			b.ReportMetric(model, "model-speedup")
		})
	}
}

func BenchmarkE8_Efficiency(b *testing.B) {
	const p = 4
	for _, n := range []int{1000, 2000, 4000} {
		x, y := benchPair(b, n, seq.DNA)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := bench.Run(x, y, scoring.DNASimple, bench.Config{
					Engine: bench.EngineFastLSA, K: 8, BaseCells: core.DefaultBaseCells, Workers: p,
				})
				if m.Err != nil {
					b.Fatal(m.Err)
				}
			}
			model := bench.ModelSpeedup(x.Len(), y.Len(), bench.ModelConfig{
				K: 8, BaseCells: core.DefaultBaseCells, Workers: p,
			})
			b.ReportMetric(model/float64(p), "model-efficiency")
		})
	}
}

func BenchmarkE9_TileSweep(b *testing.B) {
	const n, p = 2000, 4
	x, y := benchPair(b, n, seq.DNA)
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var snap stats.Snapshot
			for i := 0; i < b.N; i++ {
				m := bench.Run(x, y, scoring.DNASimple, bench.Config{
					Engine: bench.EngineFastLSA, K: k, BaseCells: core.DefaultBaseCells, Workers: p,
				})
				if m.Err != nil {
					b.Fatal(m.Err)
				}
				snap = m.Stats
			}
			total := snap[stats.Phase1Tiles] + snap[stats.Phase2Tiles] + snap[stats.Phase3Tiles]
			if total > 0 {
				b.ReportMetric(float64(snap[stats.Phase2Tiles])/float64(total), "phase2-fraction")
			}
			b.ReportMetric(bench.TheoremAlpha(p, k, k), "alpha-bound")
		})
	}
}

// Micro-benchmarks of the kernels underneath every experiment.

func BenchmarkKernelLastRow(b *testing.B) {
	x, y := benchPair(b, 4000, seq.DNA)
	b.SetBytes(int64(x.Len()) * int64(y.Len()) / 1000) // cells per op, scaled
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fastlsa.Score(x, y, fastlsa.Options{
			Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Algorithm: fastlsa.AlgoHirschberg,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelAffine(b *testing.B) {
	x, y := benchPair(b, 2000, seq.Protein)
	for i := 0; i < b.N; i++ {
		if _, err := fastlsa.Score(x, y, fastlsa.Options{
			Matrix: fastlsa.BLOSUM62, Gap: fastlsa.Affine(-11, -1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalLinearSpace(b *testing.B) {
	x, y := benchPair(b, 2000, seq.DNA)
	opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-6), Workers: 1}
	for i := 0; i < b.N; i++ {
		if _, err := fastlsa.AlignLocal(x, y, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12_Variants(b *testing.B) {
	const n = 2000
	x, y := benchPair(b, n, seq.DNA)
	gap := scoring.Linear(-4)
	b.Run("fm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := bench.Run(x, y, scoring.DNASimple, bench.Config{Engine: bench.EngineFM, Gap: gap})
			if m.Err != nil {
				b.Fatal(m.Err)
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: gap, Algorithm: fastlsa.AlgoCompact, Workers: 1}
		for i := 0; i < b.N; i++ {
			if _, err := fastlsa.Align(x, y, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fastlsa", func(b *testing.B) {
		opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: gap, Algorithm: fastlsa.AlgoFastLSA, Workers: 1}
		for i := 0; i < b.N; i++ {
			if _, err := fastlsa.Align(x, y, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13_WFACrossover measures both ends of the FastLSA-vs-WFA
// crossover (docs/BACKENDS.md): at 1% divergence the wavefront kernel wins
// by an order of magnitude, at 30% it loses — the full ladder is
// `fastlsa-bench wfa` (BENCH_E13_WFA.json).
func BenchmarkE13_WFACrossover(b *testing.B) {
	const n = 2000
	gap := scoring.Linear(-4)
	for _, d := range []float64{0.01, 0.30} {
		model := seq.MutationModel{
			SubstitutionRate: d, InsertionRate: d / 10, DeletionRate: d / 10,
			MaxIndelRun: 4, IndelExtend: 0.5,
		}
		x, y, err := seq.HomologousPair(n, seq.DNA, model, int64(1000*d)+13)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []bench.Engine{bench.EngineFastLSA, bench.EngineWFA} {
			b.Run(fmt.Sprintf("div=%.2f/%s", d, eng), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := bench.Run(x, y, scoring.DNASimple, bench.Config{Engine: eng, Gap: gap})
					if m.Err != nil {
						b.Fatal(m.Err)
					}
				}
			})
		}
	}
}

// BenchmarkE15_BiWFA compares the two wavefront modes in the low-divergence
// band the router serves with WFA: BiWFA pays roughly 2x the time of the
// unidirectional kernel (two passes plus recursion) for an order-of-magnitude
// smaller peak memory — the full sweep with peak high-water marks is
// `fastlsa-bench biwfa` (BENCH_E15_BIWFA.json).
func BenchmarkE15_BiWFA(b *testing.B) {
	const n = 2000
	gap := scoring.Linear(-4)
	for _, d := range []float64{0.01, 0.05} {
		model := seq.MutationModel{
			SubstitutionRate: d, InsertionRate: d / 10, DeletionRate: d / 10,
			MaxIndelRun: 4, IndelExtend: 0.5,
		}
		x, y, err := seq.HomologousPair(n, seq.DNA, model, int64(1000*d)+13)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []bench.Engine{bench.EngineWFA, bench.EngineBiWFA} {
			b.Run(fmt.Sprintf("div=%.2f/%s", d, eng), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := bench.Run(x, y, scoring.DNASimple, bench.Config{Engine: eng, Gap: gap})
					if m.Err != nil {
						b.Fatal(m.Err)
					}
				}
			})
		}
	}
}
