// Package hirschberg implements Hirschberg's divide-and-conquer linear-space
// global alignment algorithm as applied to sequence alignment by Myers and
// Miller (paper §2.2): split the row sequence in half, run the score-only
// kernel sweep over the top half and over the reversed bottom half (its
// suffix scores), pick the column where the two meet with maximal total
// score, and recurse on the two subproblems. Space is O(min(m,n)); roughly
// m*n extra cell computations are performed compared to the full-matrix
// algorithm (recomputation factor ~2).
//
// One solver serves both gap models. Linear gaps run the plain Hirschberg
// split (the boundary discounts are inert: a linear model has no open
// charge). Affine gaps run Myers & Miller's extension: the recursion carries
// two boundary discounts, tb and te — the gap-open charge for a vertical gap
// continuing through the subproblem's top boundary at its column 0, and
// through its bottom boundary at its column N, respectively — and a split is
// either type 1 (the optimal path crosses the middle row in the closed
// state) or type 2 (a single vertical gap spans the middle rows, refunding
// one gap-open charge).
package hirschberg

import (
	"fmt"
	"slices"

	"fastlsa/internal/align"
	"fastlsa/internal/fm"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// DefaultBaseCells is the subproblem area at which the recursion switches to
// the full-matrix solver. Small enough to be cache-resident, large enough to
// amortise recursion overhead.
const DefaultBaseCells = 4096

// Options tunes the algorithm.
type Options struct {
	// BaseCells is the (m+1)*(n+1) area threshold below which a subproblem
	// is solved with the stored-matrix algorithm (<= 0 selects
	// DefaultBaseCells; 1 forces full recursion to single rows).
	BaseCells int
}

// Align computes the optimal global alignment of a and b in linear space,
// under either gap model (Hirschberg for linear gaps, Myers-Miller for
// affine). For the whole run the budget (nil is unlimited) is charged the
// most one split holds at once, its forward and backward rows plus a
// boundary row and column, and the base-case planes.
func Align(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, opt Options, budget *memory.Budget, c *stats.Counters) (fm.Result, error) {
	if err := gap.Validate(); err != nil {
		return fm.Result{}, err
	}
	base := opt.BaseCells
	if base <= 0 {
		base = DefaultBaseCells
	}
	mod := kernel.FromGap(gap)
	rows, cols := int64(a.Len()+1), int64(b.Len()+1)
	// A base case is at most base cells, or a one-row strip of b (linear
	// gaps solve M == 1 directly), and never more than the whole matrix.
	baseEntries := min(max(int64(base), 2*cols), rows*cols)
	charge := mod.Lanes()*(3*cols+rows) + int64(mod.Planes())*baseEntries
	if err := budget.ReserveRun(charge); err != nil {
		return fm.Result{}, fmt.Errorf("hirschberg: rows and base case of %d entries: %w", charge, err)
	}
	defer budget.Release(charge)
	h := &solver{k: kernel.New(m, mod, memory.Shared, c), base: base}
	h.moves = make([]align.Move, 0, a.Len()+b.Len())
	err := h.solve(a.Residues, b.Residues, mod.Open, mod.Open)
	h.putBase()
	if err != nil {
		return fm.Result{}, err
	}
	path := align.NewPath(h.moves)
	if mod.IsAffine() {
		if err := path.Validate(a.Len(), b.Len()); err != nil {
			return fm.Result{}, fmt.Errorf("hirschberg: affine path invalid: %w", err)
		}
	}
	score := align.ScorePath(a, b, path, m, gap)
	c.Add(stats.TracebackSteps, int64(path.Len()))
	return fm.Result{Score: score, Path: path}, nil
}

type solver struct {
	k     *kernel.Kernel
	base  int
	moves []align.Move
	// baseRect is the reusable base-case plane set (lazily grown to h.base
	// entries per live plane, recycled through the pool on putBase).
	baseRect kernel.Rect
	// revA and revB hold the reversed residues of the split being run.
	revA, revB []byte
}

func (h *solver) emit(mv align.Move, n int) {
	for i := 0; i < n; i++ {
		h.moves = append(h.moves, mv)
	}
}

// solve appends the optimal path moves for aligning ra against rb to
// h.moves, in forward order, given the boundary discounts tb and te (each
// either the model's Open or 0; inert for linear models).
func (h *solver) solve(ra, rb []byte, tb, te int64) error {
	M, N := len(ra), len(rb)
	switch {
	case M == 0:
		h.emit(align.Left, N)
		return nil
	case N == 0:
		h.emit(align.Up, M)
		return nil
	}
	affine := h.k.Mod.IsAffine()
	open := h.k.Mod.Open
	if affine {
		// The stored-matrix base case charges the plain open at both
		// boundaries, so it is only valid when neither discount is active.
		if tb == open && te == open && (M+1)*(N+1) <= h.base {
			return h.solveFull(ra, rb)
		}
		if M == 1 {
			h.solveSingleRow(ra, rb, tb, te)
			return nil
		}
	} else if (M+1)*(N+1) <= h.base || M == 1 {
		return h.solveFull(ra, rb)
	}

	mid := M / 2
	bestJ, bestType, err := h.split(ra, rb, mid, tb, te)
	if err != nil {
		return err
	}
	if bestType == 1 {
		if err := h.solve(ra[:mid], rb[:bestJ], tb, open); err != nil {
			return err
		}
		return h.solve(ra[mid:], rb[bestJ:], open, te)
	}
	if err := h.solve(ra[:mid-1], rb[:bestJ], tb, 0); err != nil {
		return err
	}
	h.emit(align.Up, 2)
	return h.solve(ra[mid+1:], rb[bestJ:], 0, te)
}

// split runs the forward pass over ra[:mid] and the same pass over the
// reversed ra[mid:] and rb, and returns the column where the optimal path
// crosses row mid, with the crossing type. Its rows are released before it
// returns, so the recursion holds no split rows while it descends.
func (h *solver) split(ra, rb []byte, mid int, tb, te int64) (bestJ, bestType int, err error) {
	N := len(rb)
	affine := h.k.Mod.IsAffine()
	open := h.k.Mod.Open

	// Forward pass over ra[:mid]: row-mid H (and, affine, E) values.
	fwd, err := h.sweep(ra[:mid], rb, tb)
	if err != nil {
		return 0, 0, err
	}
	defer h.k.PutEdge(fwd)

	// Suffix pass: the suffix problem of ra[mid:] is the prefix problem of
	// the reversed residues, so its row-mid value at column j is rev[N-j].
	h.revA = reverse(h.revA, ra[mid:])
	h.revB = reverse(h.revB, rb)
	rev, err := h.sweep(h.revA, h.revB, te)
	if err != nil {
		return 0, 0, err
	}
	defer h.k.PutEdge(rev)

	// Choose the crossing column (smallest maximising j for determinism).
	// Type 1: the path crosses row mid in the closed state. Type 2 (affine):
	// a vertical gap spans rows mid and mid+1 at column j, refunding one
	// gap-open charge; the two straddling Up moves are emitted directly.
	bestType = 1
	best := fwd.H[0] + rev.H[N]
	for j := 0; j <= N; j++ {
		if v := fwd.H[j] + rev.H[N-j]; v > best {
			best, bestJ, bestType = v, j, 1
		}
		if affine {
			if v := fwd.G[j] + rev.G[N-j] - open; v > best {
				best, bestJ, bestType = v, j, 2
			}
		}
	}
	return bestJ, bestType, nil
}

// sweep runs Forward over ra against rb from a zero-cornered leading top
// edge and a left edge of one vertical gap run whose open charge is d, and
// returns the last row.
func (h *solver) sweep(ra, rb []byte, d int64) (kernel.Edge, error) {
	out := h.k.NewEdge(len(rb))
	top := h.k.LeadEdge(len(rb), 0)
	left := h.gapRunEdge(len(ra), d)
	err := h.k.Forward(ra, rb, top, left, out, kernel.Edge{})
	h.k.PutEdge(top)
	h.k.PutEdge(left)
	if err != nil {
		h.k.PutEdge(out)
		return kernel.Edge{}, err
	}
	if out.G != nil {
		// Column 0 is one vertical run (the left boundary is a gap run), so
		// the vertical-gap state there equals the closed state; the sweep
		// itself leaves the out-edge E lane dead at column 0.
		out.G[0] = out.H[0]
	}
	return out, nil
}

// reverse returns src reversed, in dst's storage when it is large enough.
func reverse(dst, src []byte) []byte {
	dst = append(dst[:0], src...)
	slices.Reverse(dst)
	return dst
}

// solveFull solves a base-case subproblem with a stored plane set (reused
// across base cases) and appends its full path.
func (h *solver) solveFull(ra, rb []byte) error {
	entries := (len(ra) + 1) * (len(rb) + 1)
	h.growBase(entries)
	rt := h.baseRect.SliceRect(entries)
	top := h.k.LeadEdge(len(rb), 0)
	left := h.k.LeadEdge(len(ra), 0)
	err := h.k.FillRect(ra, rb, top, left, rt)
	h.k.PutEdge(top)
	h.k.PutEdge(left)
	if err != nil {
		return err
	}
	bld := align.NewBuilder(len(ra) + len(rb))
	r, cc, _ := h.k.Traceback(ra, rb, rt, bld, len(ra), len(rb), kernel.StateH)
	for ; r > 0; r-- {
		bld.Push(align.Up)
	}
	for ; cc > 0; cc-- {
		bld.Push(align.Left)
	}
	h.moves = append(h.moves, bld.Path().Moves()...)
	return nil
}

// solveSingleRow handles the affine M == 1, N >= 1 base case explicitly
// (Myers-Miller): either the single residue is deleted (gap open discounted
// by the better of tb/te) or it is matched against some b[j-1].
func (h *solver) solveSingleRow(ra, rb []byte, tb, te int64) {
	N := len(rb)
	gapScore := h.k.Mod.GapCost
	// Option A: delete ra[0], insert all of rb.
	openDel := tb
	delAtTop := true
	if te > openDel {
		openDel = te
		delAtTop = false
	}
	best := openDel + h.k.Mod.Ext + gapScore(N)
	bestJ := 0 // 0 means option A
	// Option B: match ra[0] with rb[j-1].
	for j := 1; j <= N; j++ {
		v := int64(h.k.M.Score(ra[0], rb[j-1])) + gapScore(j-1) + gapScore(N-j)
		if v > best {
			best = v
			bestJ = j
		}
	}
	switch {
	case bestJ == 0 && delAtTop:
		h.emit(align.Up, 1)
		h.emit(align.Left, N)
	case bestJ == 0:
		h.emit(align.Left, N)
		h.emit(align.Up, 1)
	default:
		h.emit(align.Left, bestJ-1)
		h.emit(align.Diag, 1)
		h.emit(align.Left, N-bestJ)
	}
}

// gapRunEdge builds the boundary of one vertical gap run of length n whose
// open charge is the discount d: H[0] = 0, H[i] = d + i*Ext. The gap lane is
// dead — the run's state is carried by H, and the crossing lane (F) cannot
// be live on a standalone column boundary.
func (h *solver) gapRunEdge(n int, d int64) kernel.Edge {
	e := h.k.NewEdge(n)
	e.H[0] = 0
	for i := 1; i <= n; i++ {
		e.H[i] = d + int64(i)*h.k.Mod.Ext
	}
	if e.G != nil {
		for i := range e.G {
			e.G[i] = kernel.NegInf
		}
	}
	return e
}

// growBase ensures the reusable base-case planes hold entries cells.
func (h *solver) growBase(entries int) {
	if cap(h.baseRect.H) >= entries {
		return
	}
	h.putBase()
	h.baseRect.H = memory.Shared.GetFull(entries)
	if h.k.Mod.IsAffine() {
		h.baseRect.E = memory.Shared.GetFull(entries)
		h.baseRect.F = memory.Shared.GetFull(entries)
	}
}

// putBase returns the base-case planes to the memory.Shared.
func (h *solver) putBase() {
	memory.Shared.Put(h.baseRect.H)
	memory.Shared.Put(h.baseRect.E)
	memory.Shared.Put(h.baseRect.F)
	h.baseRect = kernel.Rect{}
}
