// Package fm implements the full-matrix (FM) dynamic-programming alignment
// algorithms of the paper's §2.1: Needleman-Wunsch global alignment with the
// two phases FindScore (fill the complete DPM) and FindPath (trace the
// optimal path backwards through the stored matrix), plus the Smith-Waterman
// local variant and a wavefront-parallel matrix fill. FM algorithms minimise
// operations (every cell exactly once) at the price of O(m*n) space; they are
// both the baseline FastLSA is compared against and the solver FastLSA uses
// for its base case.
//
// Both gap models run through the shared internal/kernel layer: linear gaps
// store one H plane, affine (Gotoh) gaps the three (H, E, F) planes.
package fm

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// pool recycles boundary edges and scratch rows across fm calls (the stored
// planes themselves are allocated per call — they are budget-charged and
// usually too large to be worth pooling).
var pool = memory.NewRowPool()

// Result is a scored global alignment path.
type Result struct {
	// Score is the optimal global alignment score (DPM bottom-right entry).
	Score int64
	// Path is the optimal path, with the deterministic tie-break
	// diagonal > up > left shared by every algorithm in this repository.
	Path align.Path
}

// Align computes the optimal global alignment of a and b with the full-matrix
// algorithm, selecting the plane count from the gap model (one linear plane,
// or the three Gotoh planes when gap.Open < 0). The plane set is charged
// against budget (nil budget = unlimited) and released before returning;
// budget exhaustion surfaces as memory.ErrExceeded.
func Align(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, budget *memory.Budget, c *stats.Counters) (Result, error) {
	if err := gap.Validate(); err != nil {
		return Result{}, err
	}
	return alignModel(a, b, m, kernel.FromGap(gap), budget, c)
}

// alignModel is the gap-generic full-matrix engine: fill the stored planes
// from leading-gap boundaries, trace back from (m, n), and extend along the
// boundary to (0,0).
func alignModel(a, b *seq.Sequence, m *scoring.Matrix, mod kernel.Model, budget *memory.Budget, c *stats.Counters) (Result, error) {
	ra, rb := a.Residues, b.Residues
	rows, cols := len(ra)+1, len(rb)+1
	entries := int64(rows) * int64(cols)
	planes := int64(mod.Planes())
	if err := budget.Reserve(planes * entries); err != nil {
		return Result{}, fmt.Errorf("fm: DPM of %d x %d x %d entries: %w", planes, rows, cols, err)
	}
	defer budget.Release(planes * entries)

	k := kernel.New(m, mod, pool, c)
	rt := k.MakeRect(rows * cols)
	top := k.LeadEdge(len(rb), 0)
	left := k.LeadEdge(len(ra), 0)
	defer k.PutEdge(top)
	defer k.PutEdge(left)
	if err := k.FillRect(ra, rb, top, left, rt); err != nil {
		return Result{}, err
	}

	bld := align.NewBuilder(len(ra) + len(rb))
	r, cc, _ := k.Traceback(ra, rb, rt, bld, len(ra), len(rb), kernel.StateH)
	// Finish along the boundary to (0,0).
	for ; r > 0; r-- {
		bld.Push(align.Up)
	}
	for ; cc > 0; cc-- {
		bld.Push(align.Left)
	}
	return Result{Score: rt.H[entries-1], Path: bld.Path()}, nil
}

// Score computes only the optimal global score, still using the full matrix
// (FindScore phase of the FM algorithm). Exposed for tests comparing phase
// costs; prefer hirschberg.Score for linear-space scoring.
func Score(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, budget *memory.Budget, c *stats.Counters) (int64, error) {
	res, err := Align(a, b, m, gap, budget, c)
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}
