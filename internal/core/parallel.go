package core

import (
	"fastlsa/internal/kernel"
	"fastlsa/internal/obs"
	"fastlsa/internal/stats"
	"fastlsa/internal/wavefront"
)

// fillGridCacheParallel is the Parallel Fill Cache of §5 (Figure 13) with
// the grid's own k x k blocks as the wavefront tiles (R = C = k): P workers
// run fillBlock in diagonal-wavefront order, skipping the bottom-right
// block, and every block publishes its bottom row and right column straight
// into the grid lines. The parallel fill therefore holds nothing beyond what
// the sequential block loop holds and reserves nothing from the budget.
//
// Theorem 4 wants R, C >= 2P to keep the ramp phases short. Subdividing the
// blocks would buy that with a transient mesh of interior lines, which cost
// the same entries as grid lines but are discarded after the fill; an unset
// Options.K is raised to 2P instead (resolveK), so the lines stay for the
// traceback and cut the recomputation of Theorem 2 as well.
func (s *solver) fillGridCacheParallel(grid *gridCache) error {
	k := grid.k
	skip := func(u, v int) bool { return u == k-1 && v == k-1 }
	return s.runWavefront(k, k, skip, func(u, v int) (int, int, error) {
		br := grid.blockRect(u, v)
		return br.rows(), br.cols(), s.fillBlock(grid, u, v)
	})
}

// fillRectParallel is the Parallel Base Case of §5.2: the stored plane set rt
// is filled by P workers over an R x C wavefront tiling; the traceback that
// follows is sequential (its cost is linear in the path length). The tiles
// write directly into rt, whose memory the caller has already reserved, so
// going parallel here never exceeds a budget the sequential fill would fit.
func (s *solver) fillRectParallel(ra, rb []byte, top, left kernel.Edge, rt kernel.Rect) error {
	rows, cols := len(ra), len(rb)
	R := max(1, min(2*s.opt.workers, rows))
	C := max(1, min(2*s.opt.workers, cols))
	trs := SplitBoundaries(0, rows, R)
	tcs := SplitBoundaries(0, cols, C)

	if err := s.k.SeedRect(ra, rb, top, left, rt); err != nil {
		return err
	}
	return s.runWavefront(R, C, nil, func(ti, tj int) (int, int, error) {
		return trs[ti+1] - trs[ti], tcs[tj+1] - tcs[tj],
			s.k.FillRegion(ra, rb, rt, trs[ti], trs[ti+1], tcs[tj], tcs[tj+1])
	})
}

// runWavefront runs fill over every tile of an R x C tiling not named by
// skip, on the solver's P workers in diagonal-wavefront order. fill returns
// the tile's extent for its span. Each tile passes the core.fillTile fault
// site, is counted in FillTiles and in its Figure 13 phase, and is traced as
// a fill-tile span tagged with that phase and its worker.
func (s *solver) runWavefront(R, C int, skip func(ti, tj int) bool, fill func(ti, tj int) (rows, cols int, err error)) error {
	ph := wavefront.ClassifyPhases(R, C, s.opt.workers, skip)
	s.c.Add(stats.Phase1Tiles, ph.Tiles1)
	s.c.Add(stats.Phase2Tiles, ph.Tiles2)
	s.c.Add(stats.Phase3Tiles, ph.Tiles3)

	nd := R + C - 1
	wf := &wavefront.Grid{
		Rows:    R,
		Cols:    C,
		Workers: s.opt.workers,
		Skip:    skip,
		Exec: func(w, ti, tj int) error {
			if err := siteFillTile.Hit(); err != nil {
				return err
			}
			ft := s.tr.Begin()
			rows, cols, err := fill(ti, tj)
			if err != nil {
				return err
			}
			s.c.Add(stats.FillTiles, 1)
			s.tr.End(obs.SpanFillTile, obs.CatWavefront, ft, obs.Tags{
				Rows: rows, Cols: cols, Phase: ph.PhaseOfDiagonal(ti+tj, nd), Worker: w + 1,
			})
			return nil
		},
	}
	return wf.Run()
}
