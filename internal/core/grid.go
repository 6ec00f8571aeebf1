package core

import (
	"fmt"

	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
)

// rect is a subproblem of the logical DPM: the node rectangle
// [r0..r1] x [c0..c1] in absolute node coordinates. Its interior cells are
// (r0+1..r1) x (c0+1..c1); the top row r0 and left column c0 carry the input
// boundary values (cacheRow / cacheColumn in the paper's pseudo-code).
type rect struct {
	r0, c0 int
	r1, c1 int
}

// rows and cols give the cell counts of the rectangle.
func (t rect) rows() int { return t.r1 - t.r0 }
func (t rect) cols() int { return t.c1 - t.c0 }

// direct reports whether solve computes t directly instead of splitting
// it: t is degenerate (no cells), its DPM fits the Base Case buffer of
// baseCells entries, or it is a thin strip (a single cell row or column),
// whose matrix is 2 x (len+1), no larger than one grid line, so solving it
// directly costs linear memory but avoids a degenerate k-way split.
func (t rect) direct(baseCells int) bool {
	rows, cols := t.rows(), t.cols()
	return rows <= 1 || cols <= 1 || (rows+1)*(cols+1) <= baseCells
}

func (t rect) String() string {
	return fmt.Sprintf("[%d..%d]x[%d..%d]", t.r0, t.r1, t.c0, t.c1)
}

// gridCache holds the cached DPM lines of one general-case invocation
// (Figure 3(c)/(d)): the k block-boundary row lines rows[0..k-1] and column
// lines cols[0..k-1] of the subproblem. Line 0 of each direction is a copy
// of the input cache; lines at rs[k] == r1 and cs[k] == c1 are never stored
// (the paper's grid stores k lines per dimension, not k+1).
//
// The line type is kernel.Edge, so the same grid serves both gap models:
// linear lines carry only the H lane; affine row lines carry (H, E) and
// column lines (H, F) — a gap can cross a grid line and the traceback must
// be able to resume inside it — doubling the footprint.
type gridCache struct {
	t      rect
	k      int
	rs, cs []int         // k+1 absolute node boundaries per dimension
	rows   []kernel.Edge // k lines; rows[i].H[j] = value at node (rs[i], c0+j)
	cols   []kernel.Edge // k lines; cols[j].H[i] = value at node (r0+i, cs[j])

	entries int64 // budget charge
	budget  *memory.Budget
}

// SplitBoundaries divides [lo..hi] into k near-equal segments, returning the
// k+1 boundary node indices. Requires hi-lo >= k so every segment is
// non-empty. It cuts the grid's blocks and the wavefront tiles, and E7's
// schedule model replays the same tiling through it.
func SplitBoundaries(lo, hi, k int) []int {
	span := hi - lo
	bs := make([]int, k+1)
	for i := 0; i <= k; i++ {
		bs[i] = lo + span*i/k
	}
	return bs
}

// gridEntries is the budget charge of t's grid cache: k row lines of
// cols+1 nodes and k column lines of rows+1 nodes, lanes entries per node.
func gridEntries(t rect, k int, lanes int64) int64 {
	return lanes * int64(k) * int64(t.rows()+t.cols()+2)
}

// newGrid allocates and initialises the grid cache for the general case of
// subproblem t (allocateGrid + initializeGrid of Figure 2). top spans node
// row r0 (lanes of len cols+1), left node column c0 (len rows+1); affine
// selects two lanes per line. The allocation is charged to the budget and
// must be returned with free.
func newGrid(t rect, k int, top, left kernel.Edge, affine bool, budget *memory.Budget) (*gridCache, error) {
	rows, cols := t.rows(), t.cols()
	g := &gridCache{
		t:      t,
		k:      k,
		rs:     SplitBoundaries(t.r0, t.r1, k),
		cs:     SplitBoundaries(t.c0, t.c1, k),
		budget: budget,
	}
	lanes := int64(1)
	if affine {
		lanes = 2
	}
	g.entries = gridEntries(t, k, lanes)
	if err := budget.Reserve(g.entries); err != nil {
		return nil, fmt.Errorf("core: grid cache for %s (k=%d, %d entries): %w", t, k, g.entries, err)
	}
	// One backing array per direction keeps the allocation count flat.
	rowBack := make([]int64, int(lanes)*k*(cols+1))
	colBack := make([]int64, int(lanes)*k*(rows+1))
	g.rows = make([]kernel.Edge, k)
	g.cols = make([]kernel.Edge, k)
	for i := 0; i < k; i++ {
		g.rows[i].H, rowBack = rowBack[:cols+1:cols+1], rowBack[cols+1:]
		g.cols[i].H, colBack = colBack[:rows+1:rows+1], colBack[rows+1:]
		if affine {
			g.rows[i].G, rowBack = rowBack[:cols+1:cols+1], rowBack[cols+1:]
			g.cols[i].G, colBack = colBack[:rows+1:rows+1], colBack[rows+1:]
		}
	}
	copy(g.rows[0].H, top.H)
	copy(g.cols[0].H, left.H)
	if affine {
		copy(g.rows[0].G, top.G)
		copy(g.cols[0].G, left.G)
	}
	// Left endpoints of deeper row lines sit on the subproblem's left
	// boundary; top endpoints of deeper column lines on its top boundary. The
	// crossing gap lane is dead there (an E lane cannot be live on a column
	// boundary, nor F on a row boundary).
	for i := 1; i < k; i++ {
		g.rows[i].H[0] = left.H[g.rs[i]-t.r0]
		if affine {
			g.rows[i].G[0] = kernel.NegInf
		}
	}
	for j := 1; j < k; j++ {
		g.cols[j].H[0] = top.H[g.cs[j]-t.c0]
		if affine {
			g.cols[j].G[0] = kernel.NegInf
		}
	}
	return g, nil
}

// free releases the grid's budget charge (deallocateGrid of Figure 2).
func (g *gridCache) free() {
	g.budget.Release(g.entries)
	g.entries = 0
	g.rows, g.cols = nil, nil
}

// blockOf locates the block whose cell range contains cell (r, c):
// rs[u] < r <= rs[u+1] and cs[v] < c <= cs[v+1]. This is the UpLeft step of
// Figure 2 — the next subproblem is this block clipped to bottom-right
// (r, c).
func (g *gridCache) blockOf(r, c int) (u, v int) {
	u = findSegment(g.rs, r)
	v = findSegment(g.cs, c)
	return u, v
}

// findSegment returns the index i with bs[i] < x <= bs[i+1].
func findSegment(bs []int, x int) int {
	lo, hi := 0, len(bs)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if bs[mid] < x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// sliceEdge re-slices every live lane of e to n+1 entries.
func sliceEdge(e kernel.Edge, n int) kernel.Edge {
	out := kernel.Edge{H: e.H[:n+1]}
	if e.G != nil {
		out.G = e.G[:n+1]
	}
	return out
}

// offsetEdge re-slices every live lane of e to [lo..hi].
func offsetEdge(e kernel.Edge, lo, hi int) kernel.Edge {
	out := kernel.Edge{H: e.H[lo : hi+1]}
	if e.G != nil {
		out.G = e.G[lo : hi+1]
	}
	return out
}

// inputRow returns the cached top-boundary row for the subproblem with
// top-left block corner (u, v) and bottom-right node (r, c): node row rs[u]
// over columns cs[v]..c.
func (g *gridCache) inputRow(u, v, c int) kernel.Edge {
	return offsetEdge(g.rows[u], g.cs[v]-g.t.c0, c-g.t.c0)
}

// inputCol returns the cached left-boundary column: node column cs[v] over
// rows rs[u]..r.
func (g *gridCache) inputCol(u, v, r int) kernel.Edge {
	return offsetEdge(g.cols[v], g.rs[u]-g.t.r0, r-g.t.r0)
}

// blockRect returns block (u, v) as a rect.
func (g *gridCache) blockRect(u, v int) rect {
	return rect{r0: g.rs[u], c0: g.cs[v], r1: g.rs[u+1], c1: g.cs[v+1]}
}

// fillCells returns the cells the Fill Cache computes in block-rows
// [from, to): every block of those rows except the bottom-right one, which
// is solved recursively instead.
func (g *gridCache) fillCells(from, to int) int64 {
	cells := int64(g.rs[to]-g.rs[from]) * int64(g.t.cols())
	if to == g.k {
		last := g.blockRect(g.k-1, g.k-1)
		cells -= int64(last.rows()) * int64(last.cols())
	}
	return cells
}
