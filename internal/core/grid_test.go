package core

import (
	"testing"
	"testing/quick"

	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
)

func TestSplitBoundaries(t *testing.T) {
	bs := SplitBoundaries(0, 10, 4)
	want := []int{0, 2, 5, 7, 10}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("SplitBoundaries(0,10,4) = %v", bs)
		}
	}
	// Offset ranges.
	bs = SplitBoundaries(100, 108, 2)
	if bs[0] != 100 || bs[1] != 104 || bs[2] != 108 {
		t.Fatalf("offset split = %v", bs)
	}
	// Exactly k cells: unit segments.
	bs = SplitBoundaries(5, 9, 4)
	for i := 0; i <= 4; i++ {
		if bs[i] != 5+i {
			t.Fatalf("unit split = %v", bs)
		}
	}
}

// TestSplitBoundariesQuick: boundaries are strictly increasing whenever the
// span is at least k, and segments differ in size by at most 1.
func TestSplitBoundariesQuick(t *testing.T) {
	f := func(span16, k8 uint8) bool {
		k := int(k8%16) + 2
		span := int(span16) + k // span >= k
		bs := SplitBoundaries(0, span, k)
		if len(bs) != k+1 || bs[0] != 0 || bs[k] != span {
			return false
		}
		minSeg, maxSeg := span, 0
		for i := 0; i < k; i++ {
			d := bs[i+1] - bs[i]
			if d <= 0 {
				return false
			}
			if d < minSeg {
				minSeg = d
			}
			if d > maxSeg {
				maxSeg = d
			}
		}
		return maxSeg-minSeg <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFindSegment(t *testing.T) {
	bs := []int{0, 3, 7, 12}
	cases := []struct{ x, want int }{
		{1, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {12, 2},
	}
	for _, tc := range cases {
		if got := findSegment(bs, tc.x); got != tc.want {
			t.Errorf("findSegment(%v, %d) = %d, want %d", bs, tc.x, got, tc.want)
		}
	}
}

func TestGridCacheLayout(t *testing.T) {
	tr := rect{r0: 10, c0: 20, r1: 30, c1: 60}
	top := kernel.Edge{H: kernel.Boundary(nil, tr.cols(), 5, -1)}  // arbitrary values
	left := kernel.Edge{H: kernel.Boundary(nil, tr.rows(), 5, -2)} // corner matches top[0]
	budget, err := memory.NewBudget(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGrid(tr, 4, top, left, false, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries.
	if g.rs[0] != 10 || g.rs[4] != 30 || g.cs[0] != 20 || g.cs[4] != 60 {
		t.Fatalf("boundaries rs=%v cs=%v", g.rs, g.cs)
	}
	// Row 0 / col 0 are copies of the inputs.
	for i := range top.H {
		if g.rows[0].H[i] != top.H[i] {
			t.Fatal("rows[0] not initialised from cacheRow")
		}
	}
	for i := range left.H {
		if g.cols[0].H[i] != left.H[i] {
			t.Fatal("cols[0] not initialised from cacheColumn")
		}
	}
	// Linear grids carry no gap lanes.
	if g.rows[0].G != nil || g.cols[0].G != nil {
		t.Fatal("linear grid allocated gap lanes")
	}
	// Deeper lines carry the boundary intersections at position 0.
	for i := 1; i < 4; i++ {
		if g.rows[i].H[0] != left.H[g.rs[i]-tr.r0] {
			t.Fatalf("rows[%d][0] = %d, want %d", i, g.rows[i].H[0], left.H[g.rs[i]-tr.r0])
		}
		if g.cols[i].H[0] != top.H[g.cs[i]-tr.c0] {
			t.Fatalf("cols[%d][0] mismatch", i)
		}
	}
	// Budget accounting round-trips.
	used := budget.Used()
	if used != g.entries || used == 0 {
		t.Fatalf("budget used %d, grid entries %d", used, g.entries)
	}
	g.free()
	if budget.Used() != 0 {
		t.Fatalf("grid free leaked %d", budget.Used())
	}
	// blockOf / blockRect / input slices are consistent.
	g2, err := newGrid(tr, 4, top, left, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, v := g2.blockOf(tr.r1, tr.c1)
	if u != 3 || v != 3 {
		t.Fatalf("bottom-right cell in block (%d,%d)", u, v)
	}
	br := g2.blockRect(u, v)
	if br.r1 != tr.r1 || br.c1 != tr.c1 {
		t.Fatalf("blockRect = %v", br)
	}
	row := g2.inputRow(0, 0, g2.cs[1])
	if len(row.H) != g2.cs[1]-tr.c0+1 {
		t.Fatalf("inputRow len = %d", len(row.H))
	}
	col := g2.inputCol(0, 0, g2.rs[1])
	if len(col.H) != g2.rs[1]-tr.r0+1 {
		t.Fatalf("inputCol len = %d", len(col.H))
	}
}

// TestGridCacheLayoutAffine pins the two-lane layout: doubled budget charge,
// G lanes copied from the inputs on line 0, and dead (NegInf) gap lanes at
// the crossing endpoints of deeper lines.
func TestGridCacheLayoutAffine(t *testing.T) {
	tr := rect{r0: 0, c0: 0, r1: 12, c1: 16}
	top := kernel.Edge{
		H: kernel.Boundary(nil, tr.cols(), 0, -2),
		G: kernel.Boundary(nil, tr.cols(), -7, -2),
	}
	left := kernel.Edge{
		H: kernel.Boundary(nil, tr.rows(), 0, -3),
		G: kernel.Boundary(nil, tr.rows(), -7, -3),
	}
	budget, err := memory.NewBudget(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGrid(tr, 4, top, left, true, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer g.free()
	wantEntries := int64(2 * (4*(tr.cols()+1) + 4*(tr.rows()+1)))
	if g.entries != wantEntries || budget.Used() != wantEntries {
		t.Fatalf("affine entries = %d (budget %d), want %d", g.entries, budget.Used(), wantEntries)
	}
	for i := range top.G {
		if g.rows[0].G[i] != top.G[i] {
			t.Fatal("rows[0].G not initialised from the input edge")
		}
	}
	for i := 1; i < 4; i++ {
		if g.rows[i].G[0] != kernel.NegInf || g.cols[i].G[0] != kernel.NegInf {
			t.Fatalf("deeper line %d: crossing gap lane not dead", i)
		}
	}
	row := g.inputRow(1, 1, g.cs[2])
	if len(row.G) != len(row.H) {
		t.Fatalf("affine inputRow lanes disagree: %d vs %d", len(row.G), len(row.H))
	}
}

func TestGridBudgetRejection(t *testing.T) {
	tr := rect{r0: 0, c0: 0, r1: 100, c1: 100}
	top := kernel.Edge{H: kernel.Boundary(nil, 100, 0, -1)}
	left := kernel.Edge{H: kernel.Boundary(nil, 100, 0, -1)}
	budget, err := memory.NewBudget(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newGrid(tr, 8, top, left, false, budget); err == nil {
		t.Fatal("grid must be rejected by a 10-entry budget")
	}
	if budget.Used() != 0 {
		t.Fatalf("failed grid leaked %d", budget.Used())
	}
}

func TestRectHelpers(t *testing.T) {
	tr := rect{r0: 2, c0: 3, r1: 7, c1: 11}
	if tr.rows() != 5 || tr.cols() != 8 {
		t.Fatalf("rows/cols = %d/%d", tr.rows(), tr.cols())
	}
	if tr.String() == "" {
		t.Fatal("rect string empty")
	}
}

func TestOptionsResolve(t *testing.T) {
	r, err := Options{}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	// An unset K stays unset until newSolver knows the problem and budget.
	if r.k != 0 || r.baseCells != DefaultBaseCells || r.workers < 1 {
		t.Fatalf("defaults = %+v", r)
	}
	if _, err := (Options{K: 1}).resolve(); err == nil {
		t.Fatal("K=1 must fail")
	}
	if _, err := (Options{BaseCells: 1}).resolve(); err == nil {
		t.Fatal("tiny BaseCells must fail")
	}
	if _, err := (Options{Workers: -2}).resolve(); err == nil {
		t.Fatal("negative workers must fail")
	}
	if r, err = (Options{K: 3}).resolve(); err != nil || r.k != 3 {
		t.Fatalf("explicit K=3 resolved to %d (%v)", r.k, err)
	}
}
