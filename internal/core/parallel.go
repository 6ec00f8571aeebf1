package core

import (
	"fmt"

	"fastlsa/internal/kernel"
	"fastlsa/internal/obs"
	"fastlsa/internal/stats"
	"fastlsa/internal/wavefront"
)

// meshEntriesFor is the transient-mesh footprint of an R x C tile grid
// refining a k x k block grid over a rows x cols subproblem: the R-k row
// lines of cols+1 entries and C-k column lines of rows+1 entries that do not
// lie on a block boundary (those are the grid cache's own lines), times the
// model's edge lanes. The minimum mesh (R = C = k) costs nothing.
func meshEntriesFor(lanes int64, k, R, C, rows, cols int) int64 {
	return lanes * (int64(R-k)*int64(cols+1) + int64(C-k)*int64(rows+1))
}

// fitMesh shrinks a u x v block subdivision toward 1 x 1 until its mesh
// fits in avail entries.
func fitMesh(lanes int64, k, u, v, rows, cols int, avail int64) (int, int) {
	for meshEntriesFor(lanes, k, k*u, k*v, rows, cols) > avail && (u > 1 || v > 1) {
		u, v = shrinkMesh(u, v)
	}
	return u, v
}

// shrinkMesh is one step toward the 1 x 1 subdivision, the larger side
// first.
func shrinkMesh(u, v int) (int, int) {
	if u >= v && u > 1 {
		return u - 1, v
	}
	return u, v - 1
}

// fillGridCacheParallel is the Parallel Fill Cache of §5 (Figure 13): the
// subproblem is tiled R x C with R = u*k and C = v*k, so tile boundaries are
// aligned with (a refinement of) the grid lines. Tiles are executed by P
// workers in diagonal-wavefront order; the u x v tiles of the bottom-right
// block are skipped. Inter-tile boundary values travel through a transient
// "mesh" of R row lines and C column lines — one lane linear, two affine.
// Mesh lines on block boundaries are the grid cache's own lines, which the
// tiles write in place; only the lines inside blocks are allocated, charged
// to the budget and released after the fill.
//
// Those interior lines are the only memory a parallel fill needs beyond
// what the sequential fill uses, so a tight budget degrades the fill rather
// than failing it ("FastLSA adapts to the amount of space available", §3):
// the requested u x v subdivision is shrunk toward 1 x 1 until the mesh fits
// what the budget has left. The 1 x 1 mesh (R = C = k) needs no interior
// line and reserves nothing, so the ladder always ends in a parallel fill.
// Every such decision is recorded on the run's counters (MeshShrinks,
// PlannedFillTiles vs ExecutedFillTiles).
func (s *solver) fillGridCacheParallel(grid *gridCache) error {
	t, k := grid.t, grid.k
	rows, cols := t.rows(), t.cols()
	affine := s.k.Mod.IsAffine()
	lanes := int64(1)
	if affine {
		lanes = 2
	}

	// Clamp the per-block subdivision so every tile is non-empty.
	uReq := clampSub(s.opt.tileRows, minSegment(grid.rs))
	vReq := clampSub(s.opt.tileCols, minSegment(grid.cs))
	s.c.Add(stats.PlannedFillTiles, int64(k*uReq)*int64(k*vReq)-int64(uReq*vReq))

	// Fit the mesh to the budget: shrink the subdivision toward 1 x 1, then
	// reserve. TryReserve (rather than trusting Available) keeps the plan
	// honest when the budget is shared with concurrent runs: a refused
	// reservation shrinks the mesh one step and tries again, down to the
	// 1 x 1 mesh, which costs nothing and is not reserved.
	u, v := fitMesh(lanes, k, uReq, vReq, rows, cols, s.opt.budget.Available())
	meshEntries := meshEntriesFor(lanes, k, k*u, k*v, rows, cols)
	for meshEntries > 0 && !s.opt.budget.TryReserve(meshEntries) {
		u, v = shrinkMesh(u, v)
		meshEntries = meshEntriesFor(lanes, k, k*u, k*v, rows, cols)
	}
	if u != uReq || v != vReq {
		s.c.Add(stats.MeshShrinks, 1)
		if s.opt.obs.Recorder != nil {
			s.opt.obs.Recorder.Add(obs.Event{Kind: obs.EvMeshShrink,
				Detail: fmt.Sprintf("%dx%d->%dx%d", uReq, vReq, u, v)})
		}
	}
	s.c.Add(stats.ExecutedFillTiles, int64(k*u)*int64(k*v)-int64(u*v))
	R, C := k*u, k*v

	// Tile boundaries refine the block boundaries.
	trs := refineBoundaries(grid.rs, u)
	tcs := refineBoundaries(grid.cs, v)

	// Mesh lines: meshRows[i] spans node row trs[i] (full width); meshCols[j]
	// spans node column tcs[j] (full height). Lines i = i'*u and j = j'*v are
	// grid lines i' and j' (line 0 holds the input cache); the rest are
	// allocated here. Lines at indices >= R (resp. C) are never produced or
	// consumed.
	defer s.opt.budget.Release(meshEntries)
	s.c.Add(stats.PeakGridEntries, s.opt.budget.Used())

	meshRows := make([]kernel.Edge, R)
	meshCols := make([]kernel.Edge, C)
	rowBack := make([]int64, int(lanes)*(R-k)*(cols+1))
	colBack := make([]int64, int(lanes)*(C-k)*(rows+1))
	for i := 0; i < R; i++ {
		if i%u == 0 {
			meshRows[i] = grid.rows[i/u]
			continue
		}
		meshRows[i].H, rowBack = rowBack[:cols+1:cols+1], rowBack[cols+1:]
		meshRows[i].H[0] = grid.cols[0].H[trs[i]-t.r0]
		if affine {
			meshRows[i].G, rowBack = rowBack[:cols+1:cols+1], rowBack[cols+1:]
			meshRows[i].G[0] = kernel.NegInf
		}
	}
	for j := 0; j < C; j++ {
		if j%v == 0 {
			meshCols[j] = grid.cols[j/v]
			continue
		}
		meshCols[j].H, colBack = colBack[:rows+1:rows+1], colBack[rows+1:]
		meshCols[j].H[0] = grid.rows[0].H[tcs[j]-t.c0]
		if affine {
			meshCols[j].G, colBack = colBack[:rows+1:rows+1], colBack[rows+1:]
			meshCols[j].G[0] = kernel.NegInf
		}
	}

	skip := func(ti, tj int) bool { return ti >= (k-1)*u && tj >= (k-1)*v }

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
		ExecW: func(w, ti, tj int) error {
			return s.fillTile(t, trs, tcs, meshRows, meshCols, ti, tj,
				w, ph.PhaseOfDiagonal(ti+tj, nd))
		},
	}
	return wf.Run()
}

// fillTile computes one wavefront tile: rows trs[ti]..trs[ti+1], columns
// tcs[tj]..tcs[tj+1]. It reads its top boundary from meshRows[ti] and left
// boundary from meshCols[tj], and publishes its bottom row into
// meshRows[ti+1] and right column into meshCols[tj+1] (excluding the
// top/left endpoints, which the up-left neighbours own). worker and phase
// only feed the trace span (phase = the tile diagonal's Figure 13 phase).
func (s *solver) fillTile(t rect, trs, tcs []int, meshRows, meshCols []kernel.Edge, ti, tj, worker, phase int) error {
	if err := siteFillTile.Hit(); err != nil {
		return err
	}
	ft := s.tr.Begin()
	r0, r1 := trs[ti], trs[ti+1]
	c0, c1 := tcs[tj], tcs[tj+1]
	segRows, segCols := r1-r0, c1-c0

	top := offsetEdge(meshRows[ti], c0-t.c0, c1-t.c0)
	left := offsetEdge(meshCols[tj], r0-t.r0, r1-t.r0)

	outRow := s.k.NewEdge(segCols)
	outCol := s.k.NewEdge(segRows)
	defer s.k.PutEdge(outRow)
	defer s.k.PutEdge(outCol)

	if err := s.k.Forward(s.a[r0:r1], s.b[c0:c1], top, left, outRow, outCol); err != nil {
		return err
	}
	if ti+1 < len(meshRows) {
		off := c0 - t.c0
		copy(meshRows[ti+1].H[off+1:off+segCols+1], outRow.H[1:])
		if outRow.G != nil {
			copy(meshRows[ti+1].G[off+1:off+segCols+1], outRow.G[1:])
		}
	}
	if tj+1 < len(meshCols) {
		off := r0 - t.r0
		copy(meshCols[tj+1].H[off+1:off+segRows+1], outCol.H[1:])
		if outCol.G != nil {
			copy(meshCols[tj+1].G[off+1:off+segRows+1], outCol.G[1:])
		}
	}
	s.c.Add(stats.FillTiles, 1)
	s.tr.End(obs.SpanFillTile, obs.CatWavefront, ft,
		obs.Tags{Rows: segRows, Cols: segCols, Phase: phase, Worker: worker + 1})
	return nil
}

// fillRectParallel is the Parallel Base Case of §5.2: the stored plane set rt
// is filled by P workers over an R x C wavefront tiling; the traceback that
// follows is sequential (its cost is linear in the path length).
//
// Unlike the Fill Cache there is no transient mesh to charge: the tiles
// write directly into rt, whose memory is already reserved by the caller
// (the pre-reserved Base Case buffer, or baseCase's dedicated thin-strip
// charge — the same plane set the sequential FillRect would use), so going
// parallel here can never exceed a budget the sequential fill would fit.
func (s *solver) fillRectParallel(ra, rb []byte, top, left kernel.Edge, rt kernel.Rect) error {
	rows, cols := len(ra), len(rb)

	// Derive a tiling comparable to the fill-cache one.
	R := s.opt.workers * 2
	if R > rows {
		R = rows
	}
	if R < 1 {
		R = 1
	}
	C := s.opt.workers * 2
	if C > cols {
		C = cols
	}
	if C < 1 {
		C = 1
	}
	trs := splitBoundaries(0, rows, R)
	tcs := splitBoundaries(0, cols, C)

	if err := s.k.SeedRect(ra, rb, top, left, rt); err != nil {
		return err
	}

	ph := wavefront.ClassifyPhases(R, C, s.opt.workers, nil)
	s.c.Add(stats.Phase1Tiles, ph.Tiles1)
	s.c.Add(stats.Phase2Tiles, ph.Tiles2)
	s.c.Add(stats.Phase3Tiles, ph.Tiles3)

	nd := R + C - 1
	wf := &wavefront.Grid{
		Rows:    R,
		Cols:    C,
		Workers: s.opt.workers,
		ExecW: func(w, ti, tj int) error {
			if err := siteFillTile.Hit(); err != nil {
				return err
			}
			ft := s.tr.Begin()
			if err := s.k.FillRegion(ra, rb, rt, trs[ti], trs[ti+1], tcs[tj], tcs[tj+1]); err != nil {
				return err
			}
			s.c.Add(stats.FillTiles, 1)
			s.tr.End(obs.SpanFillTile, obs.CatWavefront, ft, obs.Tags{
				Rows: trs[ti+1] - trs[ti], Cols: tcs[tj+1] - tcs[tj],
				Phase: ph.PhaseOfDiagonal(ti+tj, nd), Worker: w + 1,
			})
			return nil
		},
	}
	return wf.Run()
}

// clampSub limits a per-block tile subdivision to the smallest block extent
// so no tile is empty.
func clampSub(sub, minSeg int) int {
	if sub < 1 {
		return 1
	}
	if sub > minSeg {
		if minSeg < 1 {
			return 1
		}
		return minSeg
	}
	return sub
}

// minSegment returns the smallest gap between consecutive boundaries.
func minSegment(bs []int) int {
	min := bs[len(bs)-1] - bs[0]
	for i := 0; i+1 < len(bs); i++ {
		if d := bs[i+1] - bs[i]; d < min {
			min = d
		}
	}
	return min
}

// refineBoundaries splits every [bs[i], bs[i+1]] segment into sub near-equal
// parts, returning the refined boundary list of len (len(bs)-1)*sub + 1.
func refineBoundaries(bs []int, sub int) []int {
	out := make([]int, 0, (len(bs)-1)*sub+1)
	for i := 0; i+1 < len(bs); i++ {
		lo, hi := bs[i], bs[i+1]
		span := hi - lo
		for sIdx := 0; sIdx < sub; sIdx++ {
			out = append(out, lo+span*sIdx/sub)
		}
	}
	out = append(out, bs[len(bs)-1])
	return out
}
