// Package core implements the paper's contribution: the FastLSA algorithm,
// sequential (§3) and parallel (§5).
//
// FastLSA is a divide-and-conquer alignment algorithm parameterised by k and
// by a Base Case buffer of BM DPM entries. A (sub)problem whose matrix fits
// in the buffer is solved with the full-matrix algorithm; otherwise the
// logical DPM is divided into k x k blocks, all blocks except the
// bottom-right one are computed once to fill a grid cache of k row lines and
// k column lines, and the optimal path is recovered by recursing through the
// at most 2k-1 blocks the path crosses, bottom-right to top-left, using the
// grid lines as subproblem boundaries. With quadratic memory FastLSA
// degenerates to the full-matrix algorithm (no recomputation); with linear
// memory it computes at most mn * (k/(k-1))^2 cells (Theorem 2), versus
// Hirschberg's ~2mn.
//
// The parallel algorithm (§5) keeps the same recursion but computes each
// Fill Cache and each large Base Case with a diagonal-wavefront pool of P
// workers (Figure 13). A Fill Cache's tiles are the grid's own k x k blocks
// (R = C = k), so an unset k rises to 2P to keep Theorem 4's R, C >= 2P.
package core

import (
	"fmt"
	"runtime"

	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/stats"
)

// Default parameter values.
const (
	// DefaultK is the number of grid segments per dimension (paper §3,
	// "k >= 2"). 8 balances grid memory against recomputation:
	// (8/7)^2 ~ 1.31 worst-case operation factor.
	DefaultK = 8
	// DefaultBaseCells is the default Base Case buffer size BM in DPM
	// entries (512 KiB of int64 values — comfortably cache-resident on the
	// machines the paper targets).
	DefaultBaseCells = 64 * 1024
	// MinBaseCells is the smallest accepted Base Case buffer. Below this the
	// recursion overhead swamps the computation and the buffer cannot hold
	// even tiny blocks.
	MinBaseCells = 16
	// DefaultParallelFillCells is the subproblem area below which fills run
	// sequentially even when workers are available (tiles would be too small
	// to pay for scheduling).
	DefaultParallelFillCells = 1 << 16
)

// Options configures a FastLSA run. The zero value selects sensible
// defaults: k=8, a 64Ki-entry base buffer, unlimited memory, sequential
// execution.
type Options struct {
	// K is the number of segments each dimension is divided into in the
	// general case (>= 2). 0 selects max(DefaultK, 2*Workers) when that
	// root grid fits what Budget has left after the Base Case buffer (an
	// unlimited budget always fits), and DefaultK otherwise: the parallel
	// fill's wavefront tiles are the k x k blocks, and Theorem 4 wants at
	// least 2P of them per dimension.
	K int
	// BaseCells is BM, the Base Case buffer size in DPM entries (0 selects
	// DefaultBaseCells). Subproblems with (rows+1)*(cols+1) <= BaseCells are
	// solved with the full-matrix algorithm.
	BaseCells int
	// Budget is RM, the total memory budget in DPM entries (nil =
	// unlimited). The Base Case buffer and every live grid cache are charged
	// against it; exhaustion aborts the run with memory.ErrExceeded.
	Budget *memory.Budget
	// Workers is P, the number of parallel workers (1 = the sequential
	// algorithm; 0 selects GOMAXPROCS).
	Workers int
	// ParallelFillCells is the minimum subproblem area for a parallel fill
	// (0 selects DefaultParallelFillCells).
	ParallelFillCells int
	// Counters, when non-nil, accumulates instrumentation.
	Counters *stats.Counters
	// Obs is the run's instrumentation handle. Its Trace records spans for
	// the general/base cases, grid fills, wavefront tiles (phase-tagged) and
	// tracebacks; its Recorder receives phase completions; each grid-fill,
	// base-case and traceback phase is bracketed once through it
	// (obs.Run.Phase). The zero value records no spans or events.
	Obs obs.Run
	// Checkpoint, when non-nil, checkpoints the root grid cache through the
	// sink at block-row boundaries, on the ckptEveryCells cadence (a fill
	// smaller than it never saves), and seeds it from the sink's snapshot on
	// resume, so a recovered job skips already-filled strips (see
	// checkpoint.go and docs/DURABILITY.md). Nil disables checkpointing.
	Checkpoint CheckpointSink
}

// resolved is the validated, defaulted form of Options. k stays 0 when
// Options.K is unset: newSolver resolves it (resolveK) once the problem and
// the budget left after the Base Case buffer are known.
type resolved struct {
	k          int
	baseCells  int
	budget     *memory.Budget
	workers    int
	parMinArea int
	c          *stats.Counters
	obs        obs.Run
	ckpt       CheckpointSink
}

func (o Options) resolve() (resolved, error) {
	r := resolved{
		k:          o.K,
		baseCells:  o.BaseCells,
		budget:     o.Budget,
		workers:    o.Workers,
		parMinArea: o.ParallelFillCells,
		c:          o.Counters,
		obs:        o.Obs,
		ckpt:       o.Checkpoint,
	}
	if r.k != 0 && r.k < 2 {
		return resolved{}, fmt.Errorf("core: Options.K = %d, want >= 2 (paper §3)", o.K)
	}
	if r.baseCells == 0 {
		r.baseCells = DefaultBaseCells
	}
	if r.baseCells < MinBaseCells {
		return resolved{}, fmt.Errorf("core: Options.BaseCells = %d, want >= %d", o.BaseCells, MinBaseCells)
	}
	if r.workers < 0 {
		return resolved{}, fmt.Errorf("core: Options.Workers = %d, want >= 0", o.Workers)
	}
	if r.workers == 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if r.parMinArea == 0 {
		r.parMinArea = DefaultParallelFillCells
	}
	return r, nil
}

// resolveK is the k an unset Options.K selects for an m x n run on P
// workers, given the avail budget entries left after the Base Case buffer:
// max(DefaultK, 2P) when its grid fits avail, else DefaultK. With R = C =
// 2P tiles the ramp phases (Figure 13 phases 1 and 3) stay a small fraction
// of the fill: the alpha of Theorem 4 is at most (1 + 1/4)/P.
func resolveK(m, n, workers int, lanes, avail int64) int {
	if k := parallelK(workers); gridNeed(m, n, k, lanes) <= avail {
		return k
	}
	return DefaultK
}

// parallelK is the k that gives a P-worker parallel fill at least 2P
// wavefront tiles per dimension, and never less than DefaultK.
func parallelK(workers int) int { return max(DefaultK, 2*workers) }

// gridNeed estimates the peak grid-cache footprint of an m x n run with
// parameter k: the top level holds lanes*k(m+n+2) entries, each deeper
// level 1/k of the previous; sum <= lanes*k(m+n+2) * k/(k-1).
func gridNeed(m, n, k int, lanes int64) int64 {
	top := gridEntries(rect{0, 0, m, n}, k, lanes)
	return top + top/int64(k-1) + 1
}

// ErrBudgetTooSmall (memory.ErrTooSmall) is returned (wrapped) when a run is
// refused before its first cell: by SuggestOptions / PlanOptions when the
// budget is below FastLSA's linear-space floor for the problem, and by a
// run whose Base Case buffer and first grid descent exceed it
// (checkFeasible). It classifies the chosen budget as caller input, not an
// internal fault.
var ErrBudgetTooSmall = memory.ErrTooSmall

// SuggestOptions derives FastLSA parameters from a memory budget for an
// m x n problem, following the paper's tuning discussion (§3, §4): reserve a
// cache-sized Base Case buffer, then verify that the top-level grid cache
// (~2k(m+n) entries plus the geometric recursion tail) fits the remainder.
// It returns an error wrapping ErrBudgetTooSmall when even k=2 cannot fit,
// i.e. the budget is below the linear-space floor of the algorithm.
func SuggestOptions(m, n int, budgetEntries int64, workers int) (Options, error) {
	return PlanOptions(m, n, budgetEntries, workers, false, 0, 0)
}

// PlanOptions is the memory-planning core behind SuggestOptions: it derives
// budget-feasible FastLSA parameters for an m x n problem, honouring
// explicit K / BaseCells overrides (0 = derive) and the gap model's true
// footprint (affine grid lines carry two lanes and base cases three planes).
//
// Without a K override it tries parallelK(workers) first, the k whose
// blocks give the parallel fill 2P wavefront tiles per dimension, then the
// ladder DefaultK, 6, 4, 3, 2; an unlimited budget takes parallelK. The
// parallel fill needs no memory beyond the grid, so the plan charges
// nothing for it.
func PlanOptions(m, n int, budgetEntries int64, workers int, affine bool, kOverride, baseOverride int) (Options, error) {
	if m < 0 || n < 0 {
		return Options{}, fmt.Errorf("core: PlanOptions: negative dimensions %dx%d", m, n)
	}
	if kOverride != 0 && kOverride < 2 {
		return Options{}, fmt.Errorf("core: Options.K = %d, want >= 2 (paper §3)", kOverride)
	}
	if baseOverride != 0 && baseOverride < MinBaseCells {
		return Options{}, fmt.Errorf("core: Options.BaseCells = %d, want >= %d", baseOverride, MinBaseCells)
	}
	wEff := workers
	if wEff == 0 {
		wEff = runtime.GOMAXPROCS(0)
	}
	if budgetEntries <= 0 {
		// Unlimited: defaults, overrides passed through.
		opt := Options{K: parallelK(wEff), BaseCells: DefaultBaseCells, Workers: workers}
		if kOverride != 0 {
			opt.K = kOverride
		}
		if baseOverride != 0 {
			opt.BaseCells = baseOverride
		}
		return opt, nil
	}
	lanes, planes := int64(1), int64(1)
	if affine {
		lanes, planes = 2, 3
	}
	long := m
	if n > long {
		long = n
	}
	// stripEntries bounds the plane-set size of the widest thin-strip base
	// case the recursion can produce (a 1-cell-deep block of a level-1
	// subproblem): 2 node rows over at most ceil(long/k)+1 columns. Strips
	// that do not fit the base buffer reserve a dedicated plane set.
	stripEntries := func(k int) int64 {
		return 2 * (int64(long)/int64(k) + 2)
	}
	ks := []int{DefaultK, 6, 4, 3, 2}
	if pk := parallelK(wEff); pk > DefaultK {
		ks = append([]int{pk}, ks...)
	}
	if kOverride != 0 {
		ks = []int{kOverride}
	}
	// Take the first k that fits, with the largest base buffer beside it.
	for _, k := range ks {
		need := gridNeed(m, n, k, lanes)
		if need >= budgetEntries {
			continue
		}
		avail := (budgetEntries - need) / planes // entries available per base plane
		base := int64(baseOverride)
		if base == 0 {
			base = avail
			if cap := budgetEntries / (2 * planes); base > cap {
				base = cap // keep headroom for deep recursion
			}
			if base > int64(DefaultBaseCells)*16 {
				base = int64(DefaultBaseCells) * 16
			}
			if base < MinBaseCells {
				// The headroom clamp must not reject a configuration the
				// budget can in fact hold: fall back to the smallest buffer.
				if avail < MinBaseCells {
					continue
				}
				base = MinBaseCells
			}
		} else if base > avail {
			continue // explicit BaseCells does not fit beside this k's grid
		}
		// Worst-case thin strips: swallow them into the base buffer when
		// affordable (a bigger buffer costs the same as the dedicated charge
		// and helps every other base case), else charge them separately.
		if se := stripEntries(k); se > base {
			if baseOverride == 0 && se <= avail {
				base = se
			} else if need+planes*(base+se) > budgetEntries {
				continue
			}
		}

		opt := Options{K: k, BaseCells: int(base), Workers: workers}
		b, err := memory.NewBudget(budgetEntries)
		if err != nil {
			return Options{}, err
		}
		opt.Budget = b
		return opt, nil
	}
	return Options{}, fmt.Errorf("%w: %d entries for a %dx%d problem (needs ~%d)",
		ErrBudgetTooSmall, budgetEntries, m, n, gridNeed(m, n, 2, lanes)+planes*MinBaseCells)
}
