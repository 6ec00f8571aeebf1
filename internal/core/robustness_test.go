package core_test

import (
	"errors"
	"testing"

	"fastlsa/internal/core"
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
