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

// AlignMode computes an optimal ends-free alignment (align.Mode) with the
// full-matrix algorithm: free-start flags zero the corresponding DPM
// boundary, free-end flags move the traceback start to the best entry of
// the last column (FreeEndA) and/or last row (FreeEndB). The returned path
// still spans the full (m, n) rectangle — its free terminal runs simply
// carry no score — and Result.Score is the mode score (equal to
// align.ScorePathMode of the path). Both linear and affine gap models are
// supported; they share one kernel-backed engine.
func AlignMode(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, md align.Mode, budget *memory.Budget, c *stats.Counters) (Result, error) {
	if err := gap.Validate(); err != nil {
		return Result{}, err
	}
	mod := kernel.FromGap(gap)
	ra, rb := a.Residues, b.Residues
	rows, cols := len(ra)+1, len(rb)+1
	entries := int64(rows) * int64(cols)
	planes := int64(mod.Planes())
	if err := budget.ReserveRun(planes * entries); err != nil {
		return Result{}, fmt.Errorf("fm: DPM of %d x %d x %d entries: %w", planes, rows, cols, err)
	}
	defer budget.Release(planes * entries)

	k := kernel.New(m, mod, memory.Shared, c)
	rt := k.MakeRect(rows * cols)
	top := k.ModeEdge(len(rb), md.FreeStartB)
	left := k.ModeEdge(len(ra), md.FreeStartA)
	defer k.PutEdge(top)
	defer k.PutEdge(left)
	if err := k.FillRect(ra, rb, top, left, rt); err != nil {
		return Result{}, err
	}

	lastCol := make([]int64, rows)
	for r := range lastCol {
		lastCol[r] = rt.H[r*cols+cols-1]
	}
	endR, endC, score := kernel.ModeEnd(rt.H[(rows-1)*cols:], lastCol, md)

	bld := align.NewBuilder(len(ra) + len(rb))
	// Free trailing moves sit at the end of the path: push them first
	// (the builder accumulates in trace order).
	for i := len(ra); i > endR; i-- {
		bld.Push(align.Up)
	}
	for j := len(rb); j > endC; j-- {
		bld.Push(align.Left)
	}
	r, cc, _ := k.Traceback(ra, rb, rt, bld, endR, endC, kernel.StateH)
	for ; r > 0; r-- {
		bld.Push(align.Up)
	}
	for ; cc > 0; cc-- {
		bld.Push(align.Left)
	}
	return Result{Score: score, Path: bld.Path()}, nil
}
