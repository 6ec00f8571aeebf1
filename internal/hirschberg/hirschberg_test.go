package hirschberg_test

import (
	"testing"

	"fastlsa/internal/hirschberg"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

func TestFigure1(t *testing.T) {
	res, err := hirschberg.Align(testutil.Figure1A, testutil.Figure1B, scoring.Table1, scoring.PaperGap, hirschberg.Options{}, nil)
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
	if _, err := hirschberg.Align(a, b, scoring.DNASimple, scoring.Linear(-4), hirschberg.Options{BaseCells: 1024}, &c); err != nil {
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
