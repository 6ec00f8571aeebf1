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
// identical to the sequential block loop's for every k, both gap models,
// and an unlimited or a tight budget, runs one tile per block but the
// bottom-right one, and reserves nothing. Every block publishes into the
// grid lines, so a block that wrote the wrong line, or a line left
// unwritten, shows up here. The last name element is the problem's shape in
// 30-residue units, so blocks are uneven and non-square.
func TestParallelFillMatchesSequential(t *testing.T) {
	for _, gap := range []scoring.Gap{scoring.Linear(-4), scoring.Affine(-11, -1)} {
		for _, tight := range []bool{false, true} {
			for mu := 1; mu <= 3; mu++ {
				for nu := 1; nu <= 3; nu++ {
					a, b := testutil.RandomPair(30*mu, 30*nu, seq.Protein, int64(10*mu+nu))
					t.Run(fmt.Sprintf("%s/tight=%t/%dx%d", gap, tight, mu, nu), func(t *testing.T) {
						for _, k := range []int{2, 3, 5, 8, 16} {
							seqGrid := fillTestGrid(t, a, b, gap, k, tight, false)
							parGrid := fillTestGrid(t, a, b, gap, k, tight, true)
							for i := range seqGrid.rows {
								if !slices.Equal(parGrid.rows[i].H, seqGrid.rows[i].H) || !slices.Equal(parGrid.rows[i].G, seqGrid.rows[i].G) {
									t.Fatalf("k=%d: row line %d differs", k, i)
								}
								if !slices.Equal(parGrid.cols[i].H, seqGrid.cols[i].H) || !slices.Equal(parGrid.cols[i].G, seqGrid.cols[i].G) {
									t.Fatalf("k=%d: column line %d differs", k, i)
								}
							}
						}
					})
				}
			}
		}
	}
}

// fillTestGrid fills the root grid cache of a vs b once, with the wavefront
// fill (parallel) or the sequential block loop, and returns a copy of its
// lines. A tight budget holds the grid and base buffer with nothing to
// spare, which the wavefront fill must not need.
func fillTestGrid(t *testing.T, a, b *seq.Sequence, gap scoring.Gap, k int, tight, parallel bool) *gridCache {
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
	r, err := Options{K: k, BaseCells: MinBaseCells, Budget: budget, Workers: 3, Counters: &c}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSolver(a, b, scoring.BLOSUM62, gap, mod, r, rect{})
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
		t.Fatalf("fill changed the budget's use by %d entries", got-before)
	}
	if want := int64(k*k - 1); parallel && c.FillTiles.Load() != want {
		t.Fatalf("parallel fill ran %d tiles, want the %d blocks of a %dx%d grid less the bottom-right one", c.FillTiles.Load(), want, k, k)
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

// TestUnsetKRisesWithWorkers: with K unset, P = 8 workers resolve k to
// 2P = 16 when the budget holds that grid, so the root fill runs 16·16-1
// block tiles, and to DefaultK when it does not; either way the path is the
// sequential one byte for byte.
func TestUnsetKRisesWithWorkers(t *testing.T) {
	a, b := testutil.HomologousPair(1000, seq.DNA, 5)
	gap := scoring.Linear(-4)
	mod := kernel.FromGap(gap)
	want, err := Align(a, b, scoring.DNASimple, gap, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The default base buffer, then room for k = 8's grid but not k = 16's.
	small := int64(DefaultBaseCells) + gridNeed(a.Len(), b.Len(), DefaultK, 1)
	if small >= int64(DefaultBaseCells)+gridNeed(a.Len(), b.Len(), 16, 1) {
		t.Fatal("the small budget also fits k = 16")
	}
	for _, tc := range []struct {
		name   string
		budget int64 // 0 = unlimited
		k      int
	}{
		{"unlimited", 0, 16},
		{"fits-k16", 1 << 20, 16},
		{"fits-k8-only", small, DefaultK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var budget *memory.Budget
			if tc.budget > 0 {
				var err error
				if budget, err = memory.NewBudget(tc.budget); err != nil {
					t.Fatal(err)
				}
			}
			var c stats.Counters
			opt := Options{Workers: 8, Budget: budget, Counters: &c}
			r, err := opt.resolve()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSolver(a, b, scoring.DNASimple, gap, mod, r, rect{})
			if err != nil {
				t.Fatal(err)
			}
			k := s.opt.k
			s.close()
			if k != tc.k {
				t.Fatalf("K unset at P=8 resolved to k=%d, want %d", k, tc.k)
			}
			got, err := Align(a, b, scoring.DNASimple, gap, opt)
			if err != nil {
				t.Fatal(err)
			}
			// The root is the only general case: its blocks fit the base
			// buffer and are too small for a parallel base case.
			if n := c.GeneralCases.Load(); n != 1 {
				t.Fatalf("%d general cases, want the root alone", n)
			}
			if n, want := c.FillTiles.Load(), int64(tc.k*tc.k-1); n != want {
				t.Fatalf("root fill ran %d tiles, want %d", n, want)
			}
			if got.Score != want.Score || !got.Path.Equal(want.Path) {
				t.Fatalf("P=8 path differs from the sequential one (score %d vs %d)", got.Score, want.Score)
			}
			if budget.Used() != 0 {
				t.Fatalf("budget holds %d entries after the run", budget.Used())
			}
		})
	}
}
