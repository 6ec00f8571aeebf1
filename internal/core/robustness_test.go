package core_test

import (
	"errors"
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// TestParallelBudgetExhaustion: a parallel run fits in exactly the peak a
// sequential run reserves (the wavefront fill writes into the grid lines and
// reserves nothing of its own) and returns the sequential path with nothing
// left charged; under a budget below the root grid the run fails cleanly
// (ErrExceeded or ErrBudgetTooSmall, no leak).
func TestParallelBudgetExhaustion(t *testing.T) {
	a, b := testutil.HomologousPair(1200, seq.DNA, 41)
	gap := scoring.Linear(-4)
	run := func(entries int64, workers int) (core.Result, *memory.Budget, error) {
		budget, err := memory.NewBudget(entries)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Align(a, b, scoring.DNASimple, gap, core.Options{
			K: 4, BaseCells: core.MinBaseCells, Budget: budget,
			Workers: workers, ParallelFillCells: 1,
		})
		return res, budget, err
	}

	want, seqBudget, err := run(1<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	peak := seqBudget.Peak()
	res, budget, err := run(peak, 4)
	if err != nil {
		t.Fatalf("parallel run under the sequential peak of %d entries failed: %v", peak, err)
	}
	if budget.Used() != 0 {
		t.Fatalf("leak after a parallel run: %d", budget.Used())
	}
	if res.Score != want.Score || !res.Path.Equal(want.Path) {
		t.Fatal("parallel run differs from the sequential path")
	}

	lines := int64(a.Len() + b.Len())
	_, budget, err = run(int64(core.MinBaseCells)+2*lines, 4)
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
