package fm_test

import (
	"testing"

	"fastlsa/internal/memory"

	"fastlsa/internal/fm"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

// TestBandedIsLowerBound: any band's score never exceeds the unrestricted
// optimum, and the returned path rescores to the reported score.
func TestBandedIsLowerBound(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	a, b := testutil.RandomPair(120, 140, seq.DNA, 930)
	full, err := fm.Align(a, b, m, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1 << 62)
	for _, band := range []int{0, 1, 2, 4, 8, 16, 64, 200} {
		res, err := fm.AlignBanded(a, b, m, gap, band, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score > full.Score {
			t.Fatalf("band %d: score %d exceeds optimum %d", band, res.Score, full.Score)
		}
		if res.Score < prev {
			t.Fatalf("band %d: score %d decreased from %d (must be monotone in band)", band, res.Score, prev)
		}
		prev = res.Score
		if msg := testutil.CheckAlignment(a, b, res.Path, res.Score, m, gap); msg != "" {
			t.Fatalf("band %d: %s", band, msg)
		}
	}
	if prev != full.Score {
		t.Fatalf("widest band %d != optimum %d", prev, full.Score)
	}
}

// TestBandedHomologousSmallBand: for a high-identity pair a narrow band
// already recovers the global optimum at a fraction of the cells.
func TestBandedHomologousSmallBand(t *testing.T) {
	a, b := testutil.HomologousPair(800, seq.DNA, 931)
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	var cFull, cBand stats.Counters
	full, err := fm.Align(a, b, m, gap, nil, &cFull)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fm.AlignBanded(a, b, m, gap, 64, nil, &cBand)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != full.Score {
		t.Fatalf("band 64: %d, full %d (75%%-identity pair should fit)", res.Score, full.Score)
	}
	if cBand.Cells.Load()*2 >= cFull.Cells.Load() {
		t.Fatalf("banded cells %d not substantially below full %d", cBand.Cells.Load(), cFull.Cells.Load())
	}
}

func TestBandedValidation(t *testing.T) {
	a, b := testutil.RandomPair(5, 5, seq.DNA, 1)
	if _, err := fm.AlignBanded(a, b, scoring.DNASimple, scoring.Linear(-4), -1, nil, nil); err == nil {
		t.Fatal("negative band must fail")
	}
	if _, err := fm.AlignBanded(a, b, scoring.DNASimple, scoring.Affine(-5, -1), 3, nil, nil); err == nil {
		t.Fatal("affine must be rejected")
	}
	// band 0 still connects the corners when m == n (pure diagonal).
	res, err := fm.AlignBanded(a, b, scoring.DNASimple, scoring.Linear(-4), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path.String() != "DDDDD" {
		t.Fatalf("band 0 path %q", res.Path)
	}
	// Empty sequences.
	empty := seq.MustNew("e", "", seq.DNA)
	res, err = fm.AlignBanded(empty, b, scoring.DNASimple, scoring.Linear(-4), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path.String() != "LLLLL" {
		t.Fatalf("empty-a band path %q", res.Path)
	}
}

func TestBandedBudget(t *testing.T) {
	a, b := testutil.RandomPair(1000, 1000, seq.DNA, 933)
	// Band 16 needs ~1001*33 entries — well under the full million.
	budget, err := newBudget(t, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.AlignBanded(a, b, scoring.DNASimple, scoring.Linear(-4), 16, budget, nil); err != nil {
		t.Fatalf("banded run rejected by a 50k budget: %v", err)
	}
	if budget.Used() != 0 {
		t.Fatalf("budget leak: %d", budget.Used())
	}
	if _, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(-4), budget, nil); err == nil {
		t.Fatal("full matrix must exceed the same budget")
	}
}

func newBudget(t *testing.T, n int64) (*memory.Budget, error) {
	t.Helper()
	return memory.NewBudget(n)
}
