package core_test

import (
	"errors"
	"testing"
	"testing/quick"

	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

// TestParallelBudgetExhaustion: under a budget that admits the grid but not
// the full parallel mesh the fill shrinks the mesh and still returns the
// sequential path, with nothing left charged; under a budget below the root
// grid the run fails cleanly (ErrExceeded or ErrBudgetTooSmall, no leak).
func TestParallelBudgetExhaustion(t *testing.T) {
	a, b := testutil.HomologousPair(1200, seq.DNA, 41)
	gap := scoring.Linear(-4)
	run := func(entries int64) (core.Result, *memory.Budget, *stats.Counters, error) {
		budget, err := memory.NewBudget(entries)
		if err != nil {
			t.Fatal(err)
		}
		var c stats.Counters
		res, err := core.Align(a, b, scoring.DNASimple, gap, core.Options{
			K: 4, BaseCells: core.MinBaseCells, Budget: budget, Counters: &c,
			Workers: 4, TileRows: 4, TileCols: 4, ParallelFillCells: 1,
		})
		return res, budget, &c, err
	}
	lines := int64(a.Len() + b.Len())

	res, budget, c, err := run(int64(core.MinBaseCells) + 10*lines)
	if err != nil {
		t.Fatalf("mesh-shrinking budget failed: %v", err)
	}
	if c.MeshShrinks.Load() == 0 {
		t.Fatal("budget fit the full mesh: no shrink was exercised")
	}
	if budget.Used() != 0 {
		t.Fatalf("leak after a shrunken parallel run: %d", budget.Used())
	}
	want, err := core.Align(a, b, scoring.DNASimple, gap, core.Options{K: 4, BaseCells: core.MinBaseCells, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score || !res.Path.Equal(want.Path) {
		t.Fatal("shrunken parallel run differs from the sequential path")
	}

	_, budget, _, err = run(int64(core.MinBaseCells) + 2*lines)
	if err == nil {
		t.Fatal("budget below the root grid succeeded")
	}
	if !errors.Is(err, memory.ErrExceeded) && !errors.Is(err, core.ErrBudgetTooSmall) {
		t.Fatalf("error %v wraps neither ErrExceeded nor ErrBudgetTooSmall", err)
	}
	if budget.Used() != 0 {
		t.Fatalf("leak after a failed parallel run: %d", budget.Used())
	}
}

// TestQuickDifferential: random shapes, k, BM, and worker counts — FastLSA
// must match FM path-exactly every time.
func TestQuickDifferential(t *testing.T) {
	gap := scoring.Linear(-3)
	f := func(la8, lb8, k8, bm8, w8 uint8) bool {
		la := int(la8)%150 + 1
		lb := int(lb8)%150 + 1
		k := int(k8)%10 + 2
		bm := core.MinBaseCells + int(bm8)*4
		w := int(w8)%4 + 1
		a, b := testutil.RandomPair(la, lb, seq.DNA, int64(la)*1000+int64(lb))
		m := testutil.RandomMatrix(seq.DNA, int64(k)*100+int64(bm))
		want, err := fm.Align(a, b, m, gap, nil, nil)
		if err != nil {
			return false
		}
		got, err := core.Align(a, b, m, gap, core.Options{
			K: k, BaseCells: bm, Workers: w, ParallelFillCells: 64,
		})
		if err != nil {
			return false
		}
		return got.Score == want.Score && got.Path.Equal(want.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDifferentialAffine: the same property under affine gaps.
func TestQuickDifferentialAffine(t *testing.T) {
	gap := scoring.Affine(-7, -2)
	f := func(la8, lb8, k8 uint8) bool {
		la := int(la8)%100 + 1
		lb := int(lb8)%100 + 1
		k := int(k8)%6 + 2
		a, b := testutil.RandomPair(la, lb, seq.Protein, int64(la)*31+int64(lb))
		m := testutil.RandomMatrix(seq.Protein, int64(k))
		want, err := fm.AlignAffine(a, b, m, gap, nil, nil)
		if err != nil {
			return false
		}
		got, err := core.Align(a, b, m, gap, core.Options{K: k, BaseCells: 64, Workers: 1})
		if err != nil {
			return false
		}
		return got.Score == want.Score && got.Path.Equal(want.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepRecursion: a tiny base buffer forces maximal recursion depth; the
// result must still be exact and the budget must round-trip to zero.
func TestDeepRecursion(t *testing.T) {
	a, b := testutil.HomologousPair(3000, seq.DNA, 42)
	budget, err := memory.NewBudget(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{
		K: 2, BaseCells: core.MinBaseCells, Budget: budget, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(-4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || !got.Path.Equal(want.Path) {
		t.Fatal("deep recursion diverges from FM")
	}
	if budget.Used() != 0 {
		t.Fatalf("budget leak: %d", budget.Used())
	}
}

// TestIdenticalAndDisjointInputs: degenerate content.
func TestIdenticalAndDisjointInputs(t *testing.T) {
	gap := scoring.Linear(-2)
	m := scoring.DNAStrict
	same := seq.Random("s", 500, seq.DNA, 43)
	res, err := core.Align(same, same, m, gap, core.Options{K: 4, BaseCells: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != int64(same.Len()) {
		t.Fatalf("self-alignment score %d, want %d", res.Score, same.Len())
	}
	d, _, _ := res.Path.Counts()
	if d != same.Len() {
		t.Fatalf("self-alignment not pure diagonal: %d diags", d)
	}
	// All-A vs all-T: every diagonal mismatches; optimum is still known.
	aaa := seq.MustNew("a", string(repeatByte('A', 300)), seq.DNA)
	ttt := seq.MustNew("t", string(repeatByte('T', 300)), seq.DNA)
	res, err = core.Align(aaa, ttt, m, gap, core.Options{K: 8, BaseCells: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fm.Align(aaa, ttt, m, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score {
		t.Fatalf("disjoint inputs: %d vs %d", res.Score, want.Score)
	}
}

func repeatByte(c byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return out
}
