package core

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/fm"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// Result is a scored optimal global alignment path, identical in meaning to
// fm.Result (FastLSA computes exactly the same optimal alignment as the
// full-matrix algorithm for a given scoring function; only space and time
// differ — paper §2.1).
type Result = fm.Result

// Align computes the optimal global alignment of a and b with FastLSA, under
// either gap model. Workers > 1 selects Parallel FastLSA (§5); otherwise the
// sequential algorithm (§3) runs. The path is byte-identical to fm.Align's
// for the same inputs (the tie-breaking rules live in the shared kernel).
func Align(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, opt Options) (Result, error) {
	return alignModel(a, b, m, gap, kernel.FromGap(gap), opt)
}

func alignModel(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, mod kernel.Model, opt Options) (Result, error) {
	if err := gap.Validate(); err != nil {
		return Result{}, err
	}
	r, err := opt.resolve()
	if err != nil {
		return Result{}, err
	}
	s, err := newSolver(a, b, m, gap, mod, r, rect{0, 0, a.Len(), b.Len()})
	if err != nil {
		return Result{}, err
	}
	defer s.close()
	return s.run()
}

// checkFeasible is a run's one feasibility check, made before the solve
// over t reserves or computes anything. The run holds its Base Case planes
// (base entries) throughout, and solve allocates each grid of the
// recursion's first bottom-right descent while its parent's is still live,
// so all of them are held at once. If they exceed the budget's total the
// run would certainly fail mid-way, so it is refused with ErrBudgetTooSmall
// instead.
func checkFeasible(opt resolved, base int64, t rect, lanes int64) error {
	var grids int64
	for !t.direct(opt.baseCells) {
		k := min(opt.k, t.rows(), t.cols())
		grids += gridEntries(t, k, lanes)
		t = rect{r0: SplitBoundaries(t.r0, t.r1, k)[k-1], c0: SplitBoundaries(t.c0, t.c1, k)[k-1], r1: t.r1, c1: t.c1}
	}
	if total := opt.budget.Total(); total > 0 && base+grids > total {
		return fmt.Errorf("%w: base case buffer of %d entries and first-descent grid caches of %d, budget %d", ErrBudgetTooSmall, base, grids, total)
	}
	return nil
}

// solver carries the shared state of one FastLSA run, for either gap model:
// the model lives in the kernel, which supplies every fill, sweep and
// traceback; the solver owns the recursion, the grid caches and the Base
// Case buffer.
type solver struct {
	a, b []byte
	m    *scoring.Matrix
	gap  scoring.Gap
	k    *kernel.Kernel
	opt  resolved
	c    *stats.Counters
	tr   *obs.Trace
	bld  *align.Builder

	// baseRect is the pre-reserved Base Case plane set of BM entries per live
	// plane (paper §3: "Prior to running FastLSA, BM units of memory are
	// reserved"), capped at the whole problem's (m+1)(n+1), drawn from the
	// row pool and recycled on close.
	baseRect   kernel.Rect
	baseCharge int64

	// ckptGrid is the root grid cache while Options.Checkpoint is active:
	// the fill saves snapshots of this grid and of no other, at block-row
	// boundaries on the ckptEveryCells cadence (checkpoint.go).
	ckptGrid *gridCache
}

func newSolver(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, mod kernel.Model, opt resolved, t rect) (*solver, error) {
	// No subproblem outgrows the whole matrix, so planes of
	// min(BM, (m+1)(n+1)) entries hold every base case the BM test admits.
	cells := int(min(int64(opt.baseCells), int64(a.Len()+1)*int64(b.Len()+1)))
	charge := int64(mod.Planes()) * int64(cells)
	if opt.k == 0 {
		opt.k = resolveK(a.Len(), b.Len(), opt.workers, mod.Lanes(), opt.budget.Available()-charge)
	}
	if err := checkFeasible(opt, charge, t, mod.Lanes()); err != nil {
		return nil, err
	}
	if err := opt.budget.Reserve(charge); err != nil {
		return nil, fmt.Errorf("core: base case buffer of %d entries: %w", charge, err)
	}
	k := kernel.New(m, mod, memory.Shared, opt.c)
	rt := kernel.Rect{H: memory.Shared.GetFull(cells)}
	if mod.IsAffine() {
		rt.E = memory.Shared.GetFull(cells)
		rt.F = memory.Shared.GetFull(cells)
	}
	return &solver{
		a:          a.Residues,
		b:          b.Residues,
		m:          m,
		gap:        gap,
		k:          k,
		opt:        opt,
		c:          opt.c,
		tr:         opt.obs.Trace,
		bld:        align.NewBuilder(a.Len() + b.Len()),
		baseRect:   rt,
		baseCharge: charge,
	}, nil
}

func (s *solver) close() {
	s.opt.budget.Release(s.baseCharge)
	memory.Shared.Put(s.baseRect.H)
	memory.Shared.Put(s.baseRect.E)
	memory.Shared.Put(s.baseRect.F)
	s.baseRect = kernel.Rect{}
}

// run solves the whole problem: build the initial boundaries, recurse, then
// extend the partial path along the global boundary to (0,0) ("This partial
// optimal path can then be extended to the top-left entry").
func (s *solver) run() (Result, error) {
	mlen, nlen := len(s.a), len(s.b)
	top := s.k.LeadEdge(nlen, 0)
	left := s.k.LeadEdge(mlen, 0)
	defer s.k.PutEdge(top)
	defer s.k.PutEdge(left)

	er, ec, _, err := s.solve(rect{0, 0, mlen, nlen}, top, left, kernel.StateH)
	if err != nil {
		return Result{}, err
	}
	for ; er > 0; er-- {
		s.bld.Push(align.Up)
	}
	for ; ec > 0; ec-- {
		s.bld.Push(align.Left)
	}
	path := s.bld.Path()
	if err := path.Validate(mlen, nlen); err != nil {
		return Result{}, fmt.Errorf("core: produced path is inconsistent: %w", err)
	}
	score := align.ScorePath(
		&seq.Sequence{Residues: s.a},
		&seq.Sequence{Residues: s.b},
		path, s.m, s.gap)
	return Result{Score: score, Path: path}, nil
}

// solve extends the optimal path from the bottom-right node of t backwards
// until the path head reaches node row t.r0 or node column t.c0, returning
// the exit node and the traceback state there. top and left hold the boundary
// edges of node row t.r0 (lanes of len cols+1) and node column t.c0 (len
// rows+1). The state threads affine gaps across subproblem boundaries — a gap
// can span several blocks, and the traceback must resume inside it; linear
// runs stay in kernel.StateH throughout. Moves are pushed on s.bld in trace
// (backward) order — the Builder equivalent of the paper's "prepend to
// flsaPath".
func (s *solver) solve(t rect, top, left kernel.Edge, state int) (exitR, exitC, exitState int, err error) {
	if err := s.c.Cancelled(); err != nil {
		return 0, 0, 0, err
	}
	rows, cols := t.rows(), t.cols()

	// Degenerate strips: the path is forced along the boundary.
	if rows == 0 || cols == 0 {
		return t.r1, t.c1, state, nil
	}

	// BASE CASE (Figure 2 lines 1-2).
	if t.direct(s.opt.baseCells) {
		return s.baseCase(t, top, left, state)
	}

	// GENERAL CASE (Figure 2 lines 3-15).
	s.c.Add(stats.GeneralCases, 1)
	gt := s.tr.Begin()
	defer s.tr.End(obs.SpanGeneralCase, obs.CatFastLSA, gt, obs.Tags{Rows: rows, Cols: cols})
	k := s.opt.k
	if k > rows {
		k = rows
	}
	if k > cols {
		k = cols
	}

	grid, err := newGrid(t, k, top, left, s.k.Mod.IsAffine(), s.opt.budget)
	if err != nil {
		return 0, 0, 0, err
	}
	defer grid.free()
	s.c.Add(stats.PeakGridEntries, s.opt.budget.Used())

	// Only the root grid checkpoints: seed it from the sink's snapshot (a
	// cold run resumes at block-row 0) and register it so the fill saves
	// progress at block-row boundaries, on the checkpoint cadence.
	start := 0
	if s.opt.ckpt != nil && t.r0 == 0 && t.c0 == 0 && t.r1 == len(s.a) && t.c1 == len(s.b) {
		s.ckptGrid = grid
		start = s.restoreCheckpoint(grid)
	}
	if err := s.fillGridCache(grid, start); err != nil {
		return 0, 0, 0, err
	}
	if grid == s.ckptGrid {
		s.ckptGrid = nil // frees with this frame; recursion must not save into it
	}

	// Walk the path through the blocks, bottom-right to top-left. The first
	// iteration is exactly the recursion on the bottom-right block (Figure 2
	// line 8); subsequent iterations are the UpLeft loop (lines 9-13).
	hr, hc := t.r1, t.c1
	for hr > t.r0 && hc > t.c0 {
		u, v := grid.blockOf(hr, hc)
		sub := rect{r0: grid.rs[u], c0: grid.cs[v], r1: hr, c1: hc}
		hr, hc, state, err = s.solve(sub, grid.inputRow(u, v, hc), grid.inputCol(u, v, hr), state)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return hr, hc, state, nil
}

// fillGridCache computes every block of the grid except the bottom-right
// one, storing each block's output row and column segments into the grid
// lines (Figure 3(c)->(d)). Sequential runs iterate blocks in row-major
// order; parallel runs delegate to the wavefront fill of parallel.go when
// the subproblem is large enough to pay for scheduling. start is the first
// block-row to compute (non-zero only for a checkpoint-resumed root fill):
// a partial restore continues sequentially — the wavefront fill has no
// notion of resuming mid-grid — and start == k means the restore was
// complete, so the fill is a no-op.
func (s *solver) fillGridCache(grid *gridCache, start int) error {
	if start >= grid.k {
		return nil // fully restored from a checkpoint
	}
	t := grid.t
	ph := s.opt.obs.Phase(obs.CatFastLSA, obs.SpanGridFill)
	var err error
	if start == 0 && s.opt.workers > 1 && t.rows()*t.cols() >= s.opt.parMinArea {
		err = s.fillGridCacheParallel(grid)
		if err == nil && grid == s.ckptGrid && grid.fillCells(0, grid.k) >= ckptEveryCells {
			s.saveCheckpoint(grid, grid.k)
		}
	} else {
		err = s.fillGridCacheSeq(grid, start)
	}
	ph.End(obs.Tags{Rows: t.rows(), Cols: t.cols()})
	return err
}

// fillGridCacheSeq is the sequential block loop of the Fill Cache, from
// block-row start, tracing each block as a fill-block span. When this grid
// is the checkpointed root, a completed block-row is snapshotted into the
// sink once the cells filled since the last save (or since this fill began)
// reach ckptEveryCells.
func (s *solver) fillGridCacheSeq(grid *gridCache, start int) error {
	k := grid.k
	var unsaved int64
	for u := start; u < k; u++ {
		for v := 0; v < k; v++ {
			if u == k-1 && v == k-1 {
				continue // bottom-right block is solved recursively instead
			}
			bt := s.tr.Begin()
			if err := s.fillBlock(grid, u, v); err != nil {
				return err
			}
			br := grid.blockRect(u, v)
			s.tr.End(obs.SpanFillBlock, obs.CatFastLSA, bt, obs.Tags{Rows: br.rows(), Cols: br.cols()})
		}
		if grid == s.ckptGrid {
			if unsaved += grid.fillCells(u, u+1); unsaved >= ckptEveryCells {
				s.saveCheckpoint(grid, u+1)
				unsaved = 0
			}
		}
	}
	return nil
}

// fillBlock computes block (u, v) with a kernel sweep and stores its bottom
// row into grid.rows[u+1] and right column into grid.cols[v+1] (segments
// owned by this block: left/top endpoints excluded, they belong to the
// neighbouring blocks). The sequential block loop and the parallel
// wavefront fill both run it; each traces it under its own span.
func (s *solver) fillBlock(grid *gridCache, u, v int) error {
	t, k := grid.t, grid.k
	br := grid.blockRect(u, v)
	top := grid.inputRow(u, v, br.c1)
	left := grid.inputCol(u, v, br.r1)

	segCols, segRows := br.cols(), br.rows()
	outRow := s.k.NewEdge(segCols)
	outCol := s.k.NewEdge(segRows)
	defer s.k.PutEdge(outRow)
	defer s.k.PutEdge(outCol)

	if err := s.k.Forward(s.a[br.r0:br.r1], s.b[br.c0:br.c1], top, left, outRow, outCol); err != nil {
		return err
	}
	if u+1 < k {
		off := br.c0 - t.c0
		copy(grid.rows[u+1].H[off+1:off+segCols+1], outRow.H[1:])
		if outRow.G != nil {
			copy(grid.rows[u+1].G[off+1:off+segCols+1], outRow.G[1:])
		}
	}
	if v+1 < k {
		off := br.r0 - t.r0
		copy(grid.cols[v+1].H[off+1:off+segRows+1], outCol.H[1:])
		if outCol.G != nil {
			copy(grid.cols[v+1].G[off+1:off+segRows+1], outCol.G[1:])
		}
	}
	return nil
}

// baseCase solves subproblem t with the full-matrix algorithm using the
// pre-reserved planes (Figure 3(a)/(b)) and traces the path from the
// bottom-right corner to the top or left boundary. Oversized thin strips
// fall back to a dedicated budget reservation.
func (s *solver) baseCase(t rect, top, left kernel.Edge, state int) (exitR, exitC, exitState int, err error) {
	if err := siteBaseCase.Hit(); err != nil {
		return 0, 0, 0, err
	}
	s.c.Add(stats.BaseCases, 1)
	rows, cols := t.rows(), t.cols()
	entries := (rows + 1) * (cols + 1)

	rt := s.baseRect
	if entries > len(rt.H) {
		charge := int64(s.k.Mod.Planes()) * int64(entries)
		if err := s.opt.budget.Reserve(charge); err != nil {
			return 0, 0, 0, fmt.Errorf("core: thin-strip base case %s: %w", t, err)
		}
		defer s.opt.budget.Release(charge)
		rt = s.k.MakeRect(entries)
	} else {
		rt = rt.SliceRect(entries)
	}

	ra, rb := s.a[t.r0:t.r1], s.b[t.c0:t.c1]
	tags := obs.Tags{Rows: rows, Cols: cols}
	ph := s.opt.obs.Phase(obs.CatFastLSA, obs.SpanBaseCase)
	if s.opt.workers > 1 && rows*cols >= s.opt.parMinArea {
		err = s.fillRectParallel(ra, rb, top, left, rt)
	} else {
		err = s.k.FillRect(ra, rb, top, left, rt)
	}
	ph.End(tags)
	if err != nil {
		return 0, 0, 0, err
	}
	ph = s.opt.obs.Phase(obs.CatFastLSA, obs.SpanTraceback)
	lr, lc, st := s.k.Traceback(ra, rb, rt, s.bld, rows, cols, state)
	ph.End(tags)
	return t.r0 + lr, t.c0 + lc, st, nil
}
