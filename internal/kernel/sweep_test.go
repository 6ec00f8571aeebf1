package kernel_test

import (
	"testing"

	"fastlsa/internal/fm"
	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// TestForwardAffineMatchesGotoh compares the O(n)-space affine sweep's output
// row against full Gotoh solves of every prefix (fm.Align under the affine
// gap is the reference).
func TestForwardAffineMatchesGotoh(t *testing.T) {
	open, ext := int64(-7), int64(-2)
	gap := scoring.Gap{Open: int(open), Extend: int(ext)}
	for seed := int64(0); seed < 10; seed++ {
		a, b := testutil.RandomPair(int(seed%10)+1, int(seed*3%12)+1, seq.Protein, seed+200)
		m := testutil.RandomMatrix(seq.Protein, seed+200)
		k := kernel.New(m, kernel.Affine(open, ext), nil, nil)

		top := k.LeadEdge(b.Len(), 0)
		left := k.LeadEdge(a.Len(), 0)
		outRow := k.NewEdge(b.Len())
		if err := k.Forward(a.Residues, b.Residues, top, left, outRow, kernel.Edge{}); err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= b.Len(); j++ {
			want, err := fm.Align(a, b.Slice(0, j), m, gap, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if outRow.H[j] != want.Score {
				t.Fatalf("seed %d: H[m][%d] = %d, gotoh %d", seed, j, outRow.H[j], want.Score)
			}
		}
	}
}

func TestForwardValidation(t *testing.T) {
	a, b := testutil.RandomPair(3, 3, seq.DNA, 1)
	m := scoring.DNASimple
	k := kernel.New(m, kernel.Affine(-5, -1), nil, nil)
	h4 := make([]int64, 4)
	h3 := make([]int64, 3)
	good := kernel.Edge{H: h4, G: h4}
	if err := k.Forward(a.Residues, b.Residues, kernel.Edge{H: h3, G: h4}, good, kernel.Edge{}, kernel.Edge{}); err == nil {
		t.Fatal("short top H must fail")
	}
	if err := k.Forward(a.Residues, b.Residues, good, kernel.Edge{H: h3, G: h4}, kernel.Edge{}, kernel.Edge{}); err == nil {
		t.Fatal("short left H must fail")
	}
	bad := kernel.Edge{H: []int64{9, 0, 0, 0}, G: h4}
	if err := k.Forward(a.Residues, b.Residues, good, bad, kernel.Edge{}, kernel.Edge{}); err == nil {
		t.Fatal("corner mismatch must fail")
	}
	if err := k.Forward(a.Residues, b.Residues, good, good, kernel.Edge{H: h3}, kernel.Edge{}); err == nil {
		t.Fatal("short outRow must fail")
	}
}

func TestModelGapCost(t *testing.T) {
	aff := kernel.Affine(-10, -2)
	if aff.GapCost(0) != 0 || aff.GapCost(3) != -16 {
		t.Fatalf("affine GapCost = %d, %d", aff.GapCost(0), aff.GapCost(3))
	}
	lin := kernel.Linear(-4)
	if lin.GapCost(5) != -20 {
		t.Fatalf("linear GapCost = %d", lin.GapCost(5))
	}
}
