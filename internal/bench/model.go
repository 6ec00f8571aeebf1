package bench

import (
	"fastlsa/internal/core"
	"fastlsa/internal/wavefront"
)

// This file implements the analytical/simulated performance model used by
// the parallel experiments. The measured wall-clock on the current host is
// bounded by its physical CPU count; the model replays the exact tile
// schedule Parallel FastLSA executes against a virtual clock (see
// wavefront.Simulate and DESIGN.md §4, SMP-testbed substitution), which
// reproduces the speedup *shape* of the paper's §6 figures independently of
// the host.

// ModelConfig describes a Parallel FastLSA configuration for the simulator.
// Each Fill Cache's wavefront tiles are its k x k blocks, as in the
// implementation (R = C = k).
type ModelConfig struct {
	K         int // grid divisions per dimension
	BaseCells int // base-case buffer (BM)
	Workers   int // P
}

// SimulateFastLSA replays the FastLSA recursion for an m x n problem under
// cfg, scheduling every Fill Cache and Base Case on P virtual workers, and
// returns the simulated parallel time and total work (both in cell units).
// The recursion walks the worst-case path (2k-1 subproblems per level,
// alternating block shapes), matching the paper's WT(m,n,k,P) analysis.
func SimulateFastLSA(m, n int, cfg ModelConfig) (parallelTime, totalWork int64) {
	k := cfg.K
	if k == 0 {
		k = 8
	}
	bm := cfg.BaseCells
	if bm == 0 {
		bm = 64 * 1024
	}
	p := cfg.Workers
	if p < 1 {
		p = 1
	}
	var solve func(rows, cols int) (int64, int64)
	solve = func(rows, cols int) (int64, int64) {
		if rows <= 0 || cols <= 0 {
			return 0, 0
		}
		if (rows+1)*(cols+1) <= bm || rows == 1 || cols == 1 {
			// Base case: parallel rectangle fill plus sequential traceback
			// (traceback cost ~ rows+cols, negligible but kept for fidelity).
			ms, work := simulateRectFill(rows, cols, p, nil, 2*p, 2*p)
			tb := int64(rows + cols)
			return ms + tb, work + tb
		}
		keff := k
		if keff > rows {
			keff = rows
		}
		if keff > cols {
			keff = cols
		}
		// Fill Cache over the keff x keff blocks, skipping the bottom-right
		// one.
		skip := func(ti, tj int) bool { return ti == keff-1 && tj == keff-1 }
		fillMS, fillWork := simulateRectFill(rows, cols, p, skip, keff, keff)

		// Path recursion: worst case 2k-1 subproblems of ~1/k side each,
		// solved one after another (the loop of Figure 2 is sequential).
		subMS, subWork := solve(rows/keff, cols/keff)
		parallel := fillMS + int64(2*keff-1)*subMS
		work := fillWork + int64(2*keff-1)*subWork
		return parallel, work
	}
	return solve(m, n)
}

// simulateRectFill schedules an R x C tiling of a rows x cols rectangle on
// p virtual workers with per-tile cost equal to its cell count.
func simulateRectFill(rows, cols, p int, skip func(r, c int) bool, R, C int) (makespan, work int64) {
	if R > rows {
		R = rows
	}
	if C > cols {
		C = cols
	}
	if R < 1 {
		R = 1
	}
	if C < 1 {
		C = 1
	}
	trs := core.SplitBoundaries(0, rows, R)
	tcs := core.SplitBoundaries(0, cols, C)
	cost := func(ti, tj int) int64 {
		return int64(trs[ti+1]-trs[ti]) * int64(tcs[tj+1]-tcs[tj])
	}
	return wavefront.Simulate(R, C, p, skip, cost)
}

// ModelSpeedup returns the simulated speedup of cfg over the same
// configuration with one worker.
func ModelSpeedup(m, n int, cfg ModelConfig) float64 {
	seqCfg := cfg
	seqCfg.Workers = 1
	seqT, _ := SimulateFastLSA(m, n, seqCfg)
	parT, _ := SimulateFastLSA(m, n, cfg)
	if parT == 0 {
		return 0
	}
	return float64(seqT) / float64(parT)
}

// TheoremAlpha is Theorem 4's alpha = (1 + (P^2-P)/(R*C)) / P: the
// per-cell parallel-time coefficient of one Fill Cache.
func TheoremAlpha(p, r, c int) float64 {
	if p < 1 {
		p = 1
	}
	return (1 + float64(p*p-p)/float64(r*c)) / float64(p)
}
