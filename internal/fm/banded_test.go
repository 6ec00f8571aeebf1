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

// TestBandedWideEqualsFull: a band covering the whole matrix reproduces the
// unrestricted optimum, path-exactly.
func TestBandedWideEqualsFull(t *testing.T) {
	gap := scoring.Linear(-3)
	for seed := int64(0); seed < 15; seed++ {
		la := int(seed*7%40) + 1
		lb := int(seed*11%40) + 1
		a, b := testutil.RandomPair(la, lb, seq.DNA, seed+920)
		m := testutil.RandomMatrix(seq.DNA, seed+920)
		want, err := fm.Align(a, b, m, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fm.AlignBanded(a, b, m, gap, la+lb, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || !got.Path.Equal(want.Path) {
			t.Fatalf("seed %d: wide band diverges (%d vs %d)", seed, got.Score, want.Score)
		}
	}
}

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

func TestBandedAdaptive(t *testing.T) {
	a, b := testutil.HomologousPair(400, seq.DNA, 932)
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	full, err := fm.Align(a, b, m, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, band, err := fm.AlignBandedAdaptive(a, b, m, gap, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != full.Score {
		t.Fatalf("adaptive (band %d): %d, full %d", band, res.Score, full.Score)
	}
	if band >= 400 {
		t.Fatalf("adaptive band %d did not converge early", band)
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

// TestBandedAdaptiveExact: the adaptive band returns the full-matrix optimum
// on random, unequal-length and shifted-repeat (a = R1+S, b = S+R2) pairs,
// across matrices, gap costs and start bands.
func TestBandedAdaptiveExact(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		alpha, m := seq.DNA, scoring.DNASimple
		if seed%3 == 0 {
			alpha, m = seq.Protein, scoring.BLOSUM62
		}
		gap := scoring.Linear(-1 - int(seed%8))
		r1 := seq.Random("r1", int(seed%23), alpha, seed)
		s := seq.Random("s", 20+int(seed*13%90), alpha, seed+1000)
		r2 := seq.Random("r2", int(seed*7%29), alpha, seed+2000)
		a, b := r1, s
		if seed%2 == 0 {
			a = &seq.Sequence{ID: "a", Alphabet: alpha, Residues: append(append([]byte{}, r1.Residues...), s.Residues...)}
			b = &seq.Sequence{ID: "b", Alphabet: alpha, Residues: append(append([]byte{}, s.Residues...), r2.Residues...)}
		}
		full, err := fm.Align(a, b, m, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, band, err := fm.AlignBandedAdaptive(a, b, m, gap, 1+int(seed%8), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != full.Score {
			t.Fatalf("seed %d (%dx%d, %s, gap %d): adaptive band %d scored %d, full %d",
				seed, a.Len(), b.Len(), m.Name, gap.Extend, band, res.Score, full.Score)
		}
	}
}
