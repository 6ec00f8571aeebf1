package fm

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/wavefront"
)

// AlignParallel is the wavefront-parallel full-matrix algorithm: the stored
// DPM is filled by P workers over a tile grid (the FindScore phase
// parallelises; the FindPath traceback stays sequential). It is the
// quadratic-space baseline that Parallel FastLSA is compared against in the
// parallel experiments. Linear gap models only.
func AlignParallel(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, workers int, budget *memory.Budget, c *stats.Counters) (Result, error) {
	if err := gap.Validate(); err != nil {
		return Result{}, err
	}
	if !gap.IsLinear() {
		return Result{}, fmt.Errorf("fm: AlignParallel: affine gaps not supported (use Align)")
	}
	if workers <= 1 {
		return Align(a, b, m, gap, budget, c)
	}
	ra, rb := a.Residues, b.Residues
	rows, cols := len(ra), len(rb)
	stride := cols + 1
	entries := int64(rows+1) * int64(stride)
	if err := budget.ReserveRun(entries); err != nil {
		return Result{}, fmt.Errorf("fm: parallel DPM of %dx%d entries: %w", rows+1, stride, err)
	}
	defer budget.Release(entries)

	g := int64(gap.Extend)
	k := kernel.New(m, kernel.Linear(g), pool, c)
	rt := kernel.Rect{H: make([]int64, entries)}
	kernel.Boundary(rt.H[:stride], cols, 0, g)
	v := int64(0)
	for r := 0; r <= rows; r++ {
		rt.H[r*stride] = v
		v += g
	}

	if rows > 0 && cols > 0 {
		R := workers * 2
		if R > rows {
			R = rows
		}
		C := workers * 2
		if C > cols {
			C = cols
		}
		trs := tileBounds(rows, R)
		tcs := tileBounds(cols, C)
		wf := &wavefront.Grid{
			Rows:    R,
			Cols:    C,
			Workers: workers,
			Exec: func(ti, tj int) error {
				if err := k.FillRegion(ra, rb, rt, trs[ti], trs[ti+1], tcs[tj], tcs[tj+1]); err != nil {
					return err
				}
				c.Add(stats.FillTiles, 1)
				return nil
			},
		}
		ph := wavefront.ClassifyPhases(R, C, workers, nil)
		c.Add(stats.Phase1Tiles, ph.Tiles1)
		c.Add(stats.Phase2Tiles, ph.Tiles2)
		c.Add(stats.Phase3Tiles, ph.Tiles3)
		if err := wf.Run(); err != nil {
			return Result{}, err
		}
	}

	bld := align.NewBuilder(rows + cols)
	r, cc, _ := k.Traceback(ra, rb, rt, bld, rows, cols, kernel.StateH)
	for ; r > 0; r-- {
		bld.Push(align.Up)
	}
	for ; cc > 0; cc-- {
		bld.Push(align.Left)
	}
	return Result{Score: rt.H[entries-1], Path: bld.Path()}, nil
}

// tileBounds splits [0, n] into t near-equal segments.
func tileBounds(n, t int) []int {
	bs := make([]int, t+1)
	for i := 0; i <= t; i++ {
		bs[i] = n * i / t
	}
	return bs
}
