package core_test

import (
	"errors"
	"fmt"
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

func TestFigure1(t *testing.T) {
	res, err := core.Align(testutil.Figure1A, testutil.Figure1B, scoring.Table1, scoring.PaperGap, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != testutil.Figure1Score {
		t.Fatalf("score = %d, want %d", res.Score, testutil.Figure1Score)
	}
}

// TestParallelMatchesSequential: Parallel FastLSA must produce exactly the
// sequential result for every worker count and k, the unset K (which rises
// with the worker count) included.
func TestParallelMatchesSequential(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	a, b := testutil.HomologousPair(700, seq.DNA, 3)
	want, err := core.Align(a, b, m, gap, core.Options{K: 4, BaseCells: 256, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		for _, k := range []int{0, 2, 4, 6, 16} {
			got, err := core.Align(a, b, m, gap, core.Options{
				K: k, BaseCells: 256, Workers: workers,
				ParallelFillCells: 1, // force parallel paths even on small fills
			})
			if err != nil {
				t.Fatalf("P=%d K=%d: %v", workers, k, err)
			}
			if got.Score != want.Score || !got.Path.Equal(want.Path) {
				t.Fatalf("P=%d K=%d: parallel result diverges (score %d vs %d)", workers, k, got.Score, want.Score)
			}
		}
	}
}

func TestAffineParallelMatchesSequential(t *testing.T) {
	gap := scoring.Affine(-12, -2)
	m := scoring.BLOSUM62
	a, b := testutil.HomologousPair(500, seq.Protein, 8)
	want, err := core.Align(a, b, m, gap, core.Options{K: 4, BaseCells: 256, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Align(a, b, m, gap, core.Options{
		K: 4, BaseCells: 256, Workers: 4, ParallelFillCells: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || !got.Path.Equal(want.Path) {
		t.Fatalf("affine parallel diverges: score %d vs %d", got.Score, want.Score)
	}
}

// TestTheorem2Bound verifies the sequential operation bound: FastLSA
// computes at most m*n*(k/(k-1))^2 cells, plus a slack term for the clamped
// base cases (Theorem 2 / Appendix A).
func TestTheorem2Bound(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	for _, k := range []int{2, 4, 8} {
		for _, n := range []int{200, 500, 1000} {
			a, b := testutil.HomologousPair(n, seq.DNA, int64(n+k))
			var c stats.Counters
			if _, err := core.Align(a, b, m, gap, core.Options{K: k, BaseCells: 64, Workers: 1, Counters: &c}); err != nil {
				t.Fatal(err)
			}
			area := float64(a.Len()) * float64(b.Len())
			bound := area * float64(k*k) / float64((k-1)*(k-1))
			// Slack: each base case computes a full (rows+1)(cols+1) block
			// rather than rows*cols; allow 10%.
			if got := float64(c.Cells.Load()); got > bound*1.10 {
				t.Fatalf("k=%d n=%d: cells %.0f exceed Theorem 2 bound %.0f", k, n, got, bound)
			}
		}
	}
}

// TestRecomputationDecreasesWithK: the measured recomputation factor must
// shrink as k grows (E5's analytical shape).
func TestRecomputationDecreasesWithK(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	a, b := testutil.HomologousPair(1200, seq.DNA, 77)
	prev := 1e18
	for _, k := range []int{2, 4, 8, 16} {
		var c stats.Counters
		if _, err := core.Align(a, b, m, gap, core.Options{K: k, BaseCells: 64, Workers: 1, Counters: &c}); err != nil {
			t.Fatal(err)
		}
		f := float64(c.Cells.Load())
		if f >= prev {
			t.Fatalf("k=%d: cells %.0f did not decrease (prev %.0f)", k, f, prev)
		}
		prev = f
	}
}

// TestQuadraticBudgetActsLikeFM: with BaseCells covering the whole problem,
// FastLSA performs exactly one base case and computes each cell once.
func TestQuadraticBudgetActsLikeFM(t *testing.T) {
	a, b := testutil.HomologousPair(120, seq.DNA, 5)
	var c stats.Counters
	res, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{
		K: 8, BaseCells: (a.Len() + 1) * (b.Len() + 1), Workers: 1, Counters: &c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BaseCases.Load(); got != 1 {
		t.Fatalf("base cases = %d, want 1", got)
	}
	if got := c.GeneralCases.Load(); got != 0 {
		t.Fatalf("general cases = %d, want 0", got)
	}
	if got := c.Cells.Load(); got != int64(a.Len())*int64(b.Len()) {
		t.Fatalf("cells = %d, want %d", got, a.Len()*b.Len())
	}
	want, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(-4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Path.Equal(want.Path) {
		t.Fatal("paths differ from FM in quadratic mode")
	}
}

// TestLinearSpaceBudget runs FastLSA under a strict linear budget and
// verifies both completion and budget accounting.
func TestLinearSpaceBudget(t *testing.T) {
	n := 800
	a, b := testutil.HomologousPair(n, seq.DNA, 6)
	// Roughly 40(m+n) entries: far below the ~640k of the full matrix.
	budget, err := memory.NewBudget(int64(40 * (a.Len() + b.Len())))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{
		K: 8, BaseCells: 4096, Budget: budget, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(-4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score {
		t.Fatalf("score %d, want %d", res.Score, want.Score)
	}
	if budget.Used() != 0 {
		t.Fatalf("budget leak: %d entries still reserved", budget.Used())
	}
	if budget.Peak() >= int64(a.Len())*int64(b.Len()) {
		t.Fatalf("peak %d not sub-quadratic", budget.Peak())
	}
}

// TestBudgetTooSmall: an impossible budget must be refused up front with
// ErrBudgetTooSmall, before any cell, and leave no reservations behind.
func TestBudgetTooSmall(t *testing.T) {
	a, b := testutil.HomologousPair(500, seq.DNA, 7)
	budget, err := memory.NewBudget(100)
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	_, err = core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{
		K: 8, BaseCells: 64, Budget: budget, Workers: 1, Counters: &c,
	})
	if err == nil {
		t.Fatal("expected failure under a 100-entry budget")
	}
	if !errors.Is(err, core.ErrBudgetTooSmall) || c.Cells.Load() != 0 {
		t.Fatalf("error %v after %d cells, want ErrBudgetTooSmall at 0 cells", err, c.Cells.Load())
	}
	if budget.Used() != 0 {
		t.Fatalf("budget leak after failure: %d", budget.Used())
	}
}

func TestOptionValidation(t *testing.T) {
	a, b := testutil.RandomPair(4, 4, seq.DNA, 1)
	if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{K: 1}); err == nil {
		t.Fatal("K=1 must be rejected")
	}
	if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{BaseCells: 2}); err == nil {
		t.Fatal("BaseCells=2 must be rejected")
	}
	if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{Workers: -1}); err == nil {
		t.Fatal("Workers=-1 must be rejected")
	}
}

// TestSuggestOptions exercises the RM -> (k, BM) adaptation rule.
func TestSuggestOptions(t *testing.T) {
	// Plenty of memory: defaults.
	opt, err := core.SuggestOptions(1000, 1000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opt.K != core.DefaultK {
		t.Fatalf("unlimited budget: K=%d", opt.K)
	}
	// A linear budget must still be accepted...
	opt, err = core.SuggestOptions(100000, 100000, 3_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Budget == nil {
		t.Fatal("expected a budget-carrying option set")
	}
	// ...and the suggestion must actually run within it.
	a, b := testutil.HomologousPair(2000, seq.DNA, 12)
	opt2, err := core.SuggestOptions(a.Len(), b.Len(), 200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), opt2); err != nil {
		t.Fatalf("suggested options failed to run: %v", err)
	}
	// An absurdly small budget is rejected up front.
	if _, err := core.SuggestOptions(100000, 100000, 50, 1); err == nil {
		t.Fatal("expected rejection of a 50-entry budget")
	}
}

// TestCountersPopulated sanity-checks the instrumentation fields used by the
// benchmark harness.
func TestCountersPopulated(t *testing.T) {
	a, b := testutil.HomologousPair(600, seq.DNA, 13)
	var c stats.Counters
	if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{
		K: 4, BaseCells: 256, Workers: 4, ParallelFillCells: 1, Counters: &c,
	}); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s[stats.Cells] == 0 || s[stats.BaseCases] == 0 || s[stats.GeneralCases] == 0 {
		t.Fatalf("counters not populated: %v", s)
	}
	if s[stats.FillTiles] == 0 {
		t.Fatalf("parallel run recorded no fill tiles: %v", s)
	}
	if s[stats.Phase1Tiles]+s[stats.Phase2Tiles]+s[stats.Phase3Tiles] != s[stats.FillTiles] {
		t.Fatalf("phase tiles %d+%d+%d != fill tiles %d", s[stats.Phase1Tiles], s[stats.Phase2Tiles], s[stats.Phase3Tiles], s[stats.FillTiles])
	}
}

func ExampleAlign() {
	a := seq.MustNew("a", "TDVLKAD", scoring.Table1Alphabet)
	b := seq.MustNew("b", "TLDKLLKD", scoring.Table1Alphabet)
	res, err := core.Align(a, b, scoring.Table1, scoring.PaperGap, core.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Score)
	// Output: 82
}
