package core

import (
	"fmt"
	"slices"
	"testing"

	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

// TestParallelFillMatchesSequential: the wavefront fill writes grid lines
// identical to the sequential block loop's for every tile subdivision, both
// gap models, and an unlimited or a tight budget, and returns every entry
// it reserved. The block-aligned mesh lines are the grid lines themselves,
// so a tile that published into the wrong line, or a line left unwritten,
// shows up here.
func TestParallelFillMatchesSequential(t *testing.T) {
	a, b := testutil.HomologousPair(90, seq.Protein, 7)
	const k = 3
	for _, gap := range []scoring.Gap{scoring.Linear(-4), scoring.Affine(-11, -1)} {
		for _, tight := range []bool{false, true} {
			for u := 1; u <= 3; u++ {
				for v := 1; v <= 3; v++ {
					name := fmt.Sprintf("%s/tight=%t/%dx%d", gap, tight, u, v)
					t.Run(name, func(t *testing.T) {
						seqGrid := fillTestGrid(t, a, b, gap, k, 1, 1, false, false)
						parGrid := fillTestGrid(t, a, b, gap, k, u, v, tight, true)
						for i := range seqGrid.rows {
							if !slices.Equal(parGrid.rows[i].H, seqGrid.rows[i].H) || !slices.Equal(parGrid.rows[i].G, seqGrid.rows[i].G) {
								t.Fatalf("row line %d differs", i)
							}
							if !slices.Equal(parGrid.cols[i].H, seqGrid.cols[i].H) || !slices.Equal(parGrid.cols[i].G, seqGrid.cols[i].G) {
								t.Fatalf("column line %d differs", i)
							}
						}
					})
				}
			}
		}
	}
}

// fillTestGrid fills the root grid cache of a vs b once, with the wavefront
// fill over a u x v subdivision (parallel) or the sequential block loop,
// and returns a copy of its lines. A tight budget holds the grid and base
// buffer with nothing to spare, so the wavefront fill must shrink to the
// 1 x 1 mesh, which costs nothing.
func fillTestGrid(t *testing.T, a, b *seq.Sequence, gap scoring.Gap, k, u, v int, tight, parallel bool) *gridCache {
	t.Helper()
	mod := kernel.FromGap(gap)
	var budget *memory.Budget
	if tight {
		lanes := int64(1)
		if mod.IsAffine() {
			lanes = 2
		}
		grid := lanes * int64(k) * int64(a.Len()+b.Len()+2)
		var err error
		if budget, err = memory.NewBudget(grid + int64(mod.Planes())*MinBaseCells); err != nil {
			t.Fatal(err)
		}
	}
	var c stats.Counters
	r, err := Options{K: k, BaseCells: MinBaseCells, Budget: budget, Workers: 3,
		TileRows: u, TileCols: v, Counters: &c}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSolver(a, b, scoring.BLOSUM62, gap, mod, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	top := s.k.LeadEdge(b.Len(), 0)
	left := s.k.LeadEdge(a.Len(), 0)
	defer s.k.PutEdge(top)
	defer s.k.PutEdge(left)
	grid, err := newGrid(rect{0, 0, a.Len(), b.Len()}, k, top, left, mod.IsAffine(), budget)
	if err != nil {
		t.Fatal(err)
	}
	before := budget.Used()
	if tight && budget.Available() != 0 {
		t.Fatalf("tight budget leaves %d entries spare", budget.Available())
	}
	if parallel {
		err = s.fillGridCacheParallel(grid)
	} else {
		err = s.fillGridCacheSeq(grid, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := budget.Used(); got != before {
		t.Fatalf("fill leaked %d budget entries", got-before)
	}
	snap := c.Snapshot()
	if parallel {
		if want := int64(k*k - 1); tight && snap[stats.ExecutedFillTiles] != want {
			t.Fatalf("tight budget executed %d tiles, want the %d of the 1x1 mesh", snap[stats.ExecutedFillTiles], want)
		}
		if shrank := tight && (u > 1 || v > 1); (snap[stats.MeshShrinks] == 1) != shrank {
			t.Fatalf("mesh shrinks %d, want shrink=%t", snap[stats.MeshShrinks], shrank)
		}
	}
	out := &gridCache{rows: make([]kernel.Edge, k), cols: make([]kernel.Edge, k)}
	for i := 0; i < k; i++ {
		out.rows[i] = kernel.Edge{H: slices.Clone(grid.rows[i].H), G: slices.Clone(grid.rows[i].G)}
		out.cols[i] = kernel.Edge{H: slices.Clone(grid.cols[i].H), G: slices.Clone(grid.cols[i].G)}
	}
	grid.free()
	if tight && budget.Used() != int64(mod.Planes())*MinBaseCells {
		t.Fatalf("budget holds %d entries after the grid is freed", budget.Used())
	}
	return out
}
