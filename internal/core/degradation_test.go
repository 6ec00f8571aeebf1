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

// TestParallelDegradesUnderTightBudget is the regression test for a parallel
// fill under a budget that holds the grid caches and the base buffer but no
// more: the fill runs over the grid's own blocks, so it must complete with
// the byte-identical score and path of a sequential run, never
// memory.ErrExceeded, and release every entry it took.
func TestParallelDegradesUnderTightBudget(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	a, b := testutil.HomologousPair(600, seq.DNA, 21)

	want, err := core.Align(a, b, m, gap, core.Options{K: 4, BaseCells: 256, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// ~9k entries: enough for the grid caches and base buffer (a sequential
	// run fits, as asserted below).
	const budgetEntries = 9_000
	seqBudget, err := memory.NewBudget(budgetEntries)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := core.Align(a, b, m, gap, core.Options{
		K: 4, BaseCells: 256, Budget: seqBudget, Workers: 1,
	})
	if err != nil {
		t.Fatalf("sequential run must fit the %d-entry budget: %v", budgetEntries, err)
	}
	if seqRes.Score != want.Score {
		t.Fatalf("sequential budgeted score %d != unlimited %d", seqRes.Score, want.Score)
	}

	parBudget, err := memory.NewBudget(budgetEntries)
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	got, err := core.Align(a, b, m, gap, core.Options{
		K: 4, BaseCells: 256, Budget: parBudget, Workers: 4,
		ParallelFillCells: 1, // force the parallel fill path everywhere
		Counters:          &c,
	})
	if err != nil {
		t.Fatalf("parallel fill must fit the budget a sequential run fits: %v", err)
	}
	if got.Score != want.Score || !got.Path.Equal(want.Path) {
		t.Fatalf("parallel result under a tight budget diverges: score %d, want %d", got.Score, want.Score)
	}
	if s := c.Snapshot(); s[stats.FillTiles] == 0 {
		t.Fatalf("expected parallel fill tiles under a %d-entry budget: %+v", budgetEntries, s)
	}
	if parBudget.Used() != 0 {
		t.Fatalf("budget leak after a parallel run: %d entries", parBudget.Used())
	}
}

// TestSuggestedOptionsNeverExceed is the property test: any Options that
// SuggestOptions / PlanOptions accepts must execute without memory.ErrExceeded,
// at any worker count: the parallel fill needs nothing beyond the plan.
func TestSuggestedOptionsNeverExceed(t *testing.T) {
	gap := scoring.Linear(-4)
	agap := scoring.Affine(-6, -1)
	m := scoring.DNASimple
	sizes := [][2]int{{0, 0}, {1, 80}, {63, 64}, {300, 500}, {900, 900}}
	fracs := []float64{0.01, 0.03, 0.2, 1.5}
	for _, sz := range sizes {
		a, b := testutil.RandomPair(sz[0], sz[1], seq.DNA, int64(sz[0]+sz[1]))
		full := int64(a.Len()+1) * int64(b.Len()+1)
		for _, frac := range fracs {
			budget := int64(frac * float64(full))
			for _, workers := range []int{1, 4, 8} {
				opt, err := core.SuggestOptions(a.Len(), b.Len(), budget, workers)
				if err != nil {
					if !errors.Is(err, core.ErrBudgetTooSmall) {
						t.Fatalf("%v budget=%d P=%d: rejection does not wrap ErrBudgetTooSmall: %v", sz, budget, workers, err)
					}
					continue // infeasible budgets may be rejected, never mis-planned
				}
				opt.ParallelFillCells = 1
				if _, err := core.Align(a, b, m, gap, opt); err != nil {
					t.Fatalf("%v budget=%d P=%d: accepted plan %+v failed: %v", sz, budget, workers, opt, err)
				}
			}
			// Affine plans charge two lanes and three planes; same property.
			aopt, err := core.PlanOptions(a.Len(), b.Len(), budget, 4, true, 0, 0)
			if err != nil {
				if !errors.Is(err, core.ErrBudgetTooSmall) {
					t.Fatalf("%v budget=%d affine: rejection does not wrap ErrBudgetTooSmall: %v", sz, budget, err)
				}
				continue
			}
			aopt.ParallelFillCells = 1
			if _, err := core.Align(a, b, m, agap, aopt); err != nil {
				t.Fatalf("%v budget=%d affine P=4: accepted plan %+v failed: %v", sz, budget, aopt, err)
			}
		}
	}
}

// TestSuggestOptionsHeadroomClamp pins the headroom-accounting fix: a budget
// whose remainder after the grid floor is above MinBaseCells must be
// accepted even when half the budget is below MinBaseCells (the old clamp
// rejected exactly this shape).
func TestSuggestOptionsHeadroomClamp(t *testing.T) {
	opt, err := core.SuggestOptions(0, 0, 30, 1)
	if err != nil {
		t.Fatalf("30 entries comfortably hold an empty problem: %v", err)
	}
	if opt.BaseCells < core.MinBaseCells {
		t.Fatalf("BaseCells = %d below minimum", opt.BaseCells)
	}
	a, b := testutil.RandomPair(0, 0, seq.DNA, 1)
	if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), opt); err != nil {
		t.Fatalf("accepted plan failed: %v", err)
	}
}

// TestPlanOptionsOverrides: explicit K / BaseCells overrides are planning
// inputs — an override the budget cannot hold is rejected up front with
// ErrBudgetTooSmall instead of aborting mid-run with memory.ErrExceeded.
func TestPlanOptionsOverrides(t *testing.T) {
	if _, err := core.PlanOptions(1000, 1000, 10_000, 1, false, 0, 9_000); !errors.Is(err, core.ErrBudgetTooSmall) {
		t.Fatalf("oversized BaseCells override not rejected with ErrBudgetTooSmall: %v", err)
	}
	if _, err := core.PlanOptions(1000, 1000, 5_000, 1, false, 8, 0); !errors.Is(err, core.ErrBudgetTooSmall) {
		t.Fatalf("K=8 grid cannot fit 5k entries; got: %v", err)
	}
	// A feasible override pair is honoured verbatim.
	opt, err := core.PlanOptions(1000, 1000, 100_000, 1, false, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if opt.K != 4 || opt.BaseCells != 1024 {
		t.Fatalf("overrides not honoured: K=%d BaseCells=%d", opt.K, opt.BaseCells)
	}
}
