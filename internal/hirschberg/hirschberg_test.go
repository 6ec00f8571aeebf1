package hirschberg_test

import (
	"errors"
	"testing"

	"fastlsa/internal/hirschberg"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

func TestFigure1(t *testing.T) {
	res, err := hirschberg.Align(testutil.Figure1A, testutil.Figure1B, scoring.Table1, scoring.PaperGap, hirschberg.Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != testutil.Figure1Score {
		t.Fatalf("score = %d, want %d", res.Score, testutil.Figure1Score)
	}
	if msg := testutil.CheckAlignment(testutil.Figure1A, testutil.Figure1B, res.Path, res.Score, scoring.Table1, scoring.PaperGap); msg != "" {
		t.Fatal(msg)
	}
}

// TestRecomputationFactor checks the §2.2 claim: Hirschberg performs
// approximately twice the cell computations of the FM algorithm.
func TestRecomputationFactor(t *testing.T) {
	a, b := testutil.HomologousPair(600, seq.DNA, 9)
	var c stats.Counters
	if _, err := hirschberg.Align(a, b, scoring.DNASimple, scoring.Linear(-4), hirschberg.Options{BaseCells: 1024}, nil, &c); err != nil {
		t.Fatal(err)
	}
	f := c.RecomputationFactor(a.Len(), b.Len())
	if f < 1.0 || f > 2.3 {
		t.Fatalf("recomputation factor %.3f outside (1.0, 2.3]", f)
	}
	if f < 1.5 {
		t.Fatalf("recomputation factor %.3f suspiciously low for Hirschberg (expect ~2)", f)
	}
}

// TestBudget: a run charges its rows and base case against the budget for
// its whole length, is refused with memory.ErrTooSmall when they do not fit,
// and releases every entry either way.
func TestBudget(t *testing.T) {
	a, b := testutil.HomologousPair(300, seq.DNA, 9)
	for _, gap := range []scoring.Gap{scoring.Linear(-4), scoring.Affine(-6, -2)} {
		for _, tc := range []struct {
			total int64
			fits  bool
		}{{64, false}, {1 << 20, true}} {
			budget, err := memory.NewBudget(tc.total)
			if err != nil {
				t.Fatal(err)
			}
			_, err = hirschberg.Align(a, b, scoring.DNASimple, gap, hirschberg.Options{}, budget, nil)
			switch {
			case tc.fits && (err != nil || budget.Peak() == 0):
				t.Errorf("%v, budget %d: %v, peak %d", gap, tc.total, err, budget.Peak())
			case !tc.fits && !errors.Is(err, memory.ErrTooSmall):
				t.Errorf("%v, budget %d: %v, want memory.ErrTooSmall", gap, tc.total, err)
			}
			if budget.Used() != 0 {
				t.Errorf("%v, budget %d: %d entries still reserved", gap, tc.total, budget.Used())
			}
		}
	}
}
