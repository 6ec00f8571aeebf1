package kernel_test

import (
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// This file pins the degeneration property the kernel package is built on:
// the three-plane affine recurrence with Open == 0 is byte-identical to the
// single-plane linear recurrence — same scores AND same edit scripts — in
// every alignment mode (global, semiglobal/ends-free, local). The traceback's
// close-first tie-break for Open == 0 (see Kernel.Traceback) is what makes
// the paths, not just the scores, coincide.

// alignResult is one mode-specific alignment outcome for comparison.
type alignResult struct {
	score        int64
	moves        []align.Move
	endR, endC   int
	downR, downC int // local only: start cell
}

func globalResult(t *testing.T, k *kernel.Kernel, ra, rb []byte) alignResult {
	t.Helper()
	rt := k.MakeRect((len(ra) + 1) * (len(rb) + 1))
	top := k.LeadEdge(len(rb), 0)
	left := k.LeadEdge(len(ra), 0)
	if err := k.FillRect(ra, rb, top, left, rt); err != nil {
		t.Fatal(err)
	}
	bld := align.NewBuilder(len(ra) + len(rb))
	r, c, _ := k.Traceback(ra, rb, rt, bld, len(ra), len(rb), kernel.StateH)
	for ; r > 0; r-- {
		bld.Push(align.Up)
	}
	for ; c > 0; c-- {
		bld.Push(align.Left)
	}
	return alignResult{score: rt.H[len(rt.H)-1], moves: bld.Path().Moves()}
}

func semiglobalResult(t *testing.T, k *kernel.Kernel, ra, rb []byte, md align.Mode) alignResult {
	t.Helper()
	rows, cols := len(ra), len(rb)
	rt := k.MakeRect((rows + 1) * (cols + 1))
	top := k.ModeEdge(cols, md.FreeStartB)
	left := k.ModeEdge(rows, md.FreeStartA)
	if err := k.FillRect(ra, rb, top, left, rt); err != nil {
		t.Fatal(err)
	}
	lastRow := rt.H[rows*(cols+1):]
	lastCol := make([]int64, rows+1)
	for r := 0; r <= rows; r++ {
		lastCol[r] = rt.H[r*(cols+1)+cols]
	}
	endR, endC, score := kernel.ModeEnd(lastRow, lastCol, md)
	bld := align.NewBuilder(rows + cols)
	for i := rows; i > endR; i-- {
		bld.Push(align.Up)
	}
	for j := cols; j > endC; j-- {
		bld.Push(align.Left)
	}
	r, c, _ := k.Traceback(ra, rb, rt, bld, endR, endC, kernel.StateH)
	for ; r > 0; r-- {
		bld.Push(align.Up)
	}
	for ; c > 0; c-- {
		bld.Push(align.Left)
	}
	return alignResult{score: score, moves: bld.Path().Moves(), endR: endR, endC: endC}
}

func localResult(t *testing.T, k *kernel.Kernel, ra, rb []byte) alignResult {
	t.Helper()
	rt := k.MakeRect((len(ra) + 1) * (len(rb) + 1))
	best, bestR, bestC, err := k.FillLocal(ra, rb, rt)
	if err != nil {
		t.Fatal(err)
	}
	if best == 0 {
		return alignResult{}
	}
	bld := align.NewBuilder(len(ra) + len(rb))
	startR, startC := k.TracebackLocal(ra, rb, rt, bld, bestR, bestC)
	return alignResult{
		score: best, moves: bld.Path().Moves(),
		endR: bestR, endC: bestC, downR: startR, downC: startC,
	}
}

func compareResults(t *testing.T, mode string, lin, aff alignResult) {
	t.Helper()
	if lin.score != aff.score {
		t.Fatalf("%s: linear score %d != affine(Open=0) score %d", mode, lin.score, aff.score)
	}
	if lin.endR != aff.endR || lin.endC != aff.endC || lin.downR != aff.downR || lin.downC != aff.downC {
		t.Fatalf("%s: endpoints diverge: linear (%d,%d)-(%d,%d), affine (%d,%d)-(%d,%d)",
			mode, lin.downR, lin.downC, lin.endR, lin.endC, aff.downR, aff.downC, aff.endR, aff.endC)
	}
	if len(lin.moves) != len(aff.moves) {
		t.Fatalf("%s: path lengths diverge: %d vs %d", mode, len(lin.moves), len(aff.moves))
	}
	for i := range lin.moves {
		if lin.moves[i] != aff.moves[i] {
			t.Fatalf("%s: edit scripts diverge at move %d: %v vs %v", mode, i, lin.moves, aff.moves)
		}
	}
}

// TestLinearAffineEquivalence: for seeded random DNA and protein pairs and
// every alignment mode, the Affine(0, ext) kernel reproduces the Linear(ext)
// kernel byte for byte.
func TestLinearAffineEquivalence(t *testing.T) {
	semiModes := []align.Mode{
		align.Overlap,
		{FreeStartA: true, FreeEndB: true},
		{FreeStartB: true, FreeEndA: true},
	}
	for _, alpha := range []*seq.Alphabet{seq.DNA, seq.Protein} {
		for seed := int64(0); seed < 12; seed++ {
			a, b := testutil.RandomPair(int(seed*5%37)+1, int(seed*7%43)+1, alpha, seed+900)
			m := testutil.RandomMatrix(alpha, seed+900)
			ext := int64(-(seed%3 + 1))
			lin := kernel.New(m, kernel.Linear(ext), nil, nil)
			aff := kernel.New(m, kernel.Affine(0, ext), nil, nil)
			ra, rb := a.Residues, b.Residues

			compareResults(t, "global",
				globalResult(t, lin, ra, rb), globalResult(t, aff, ra, rb))
			for _, md := range semiModes {
				compareResults(t, "semiglobal "+md.String(),
					semiglobalResult(t, lin, ra, rb, md), semiglobalResult(t, aff, ra, rb, md))
			}
			compareResults(t, "local",
				localResult(t, lin, ra, rb), localResult(t, aff, ra, rb))
		}
	}
}

// TestLinearAffineEquivalenceScoreOnly extends the property to the O(n)-space
// entry points (Score and LocalScore), which exercise the sweep rather than
// the stored-rectangle code path.
func TestLinearAffineEquivalenceScoreOnly(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, b := testutil.RandomPair(int(seed*11%60)+1, int(seed*13%55)+1, seq.Protein, seed+1300)
		m := testutil.RandomMatrix(seq.Protein, seed+1300)
		ext := int64(-2)
		lin := kernel.New(m, kernel.Linear(ext), nil, nil)
		aff := kernel.New(m, kernel.Affine(0, ext), nil, nil)

		ls, err := lin.Score(a.Residues, b.Residues, align.Global)
		if err != nil {
			t.Fatal(err)
		}
		as, err := aff.Score(a.Residues, b.Residues, align.Global)
		if err != nil {
			t.Fatal(err)
		}
		if ls != as {
			t.Fatalf("seed %d: Score diverges: linear %d, affine(0) %d", seed, ls, as)
		}

		lBest, lR, lC, err := lin.LocalScore(a.Residues, b.Residues)
		if err != nil {
			t.Fatal(err)
		}
		aBest, aR, aC, err := aff.LocalScore(a.Residues, b.Residues)
		if err != nil {
			t.Fatal(err)
		}
		if lBest != aBest || lR != aR || lC != aC {
			t.Fatalf("seed %d: LocalScore diverges: linear %d@(%d,%d), affine(0) %d@(%d,%d)",
				seed, lBest, lR, lC, aBest, aR, aC)
		}
	}
}

// TestGapValidateStillRejects guards that the scoring layer, not the kernel,
// remains responsible for rejecting positive penalties: FromGap on a valid
// Gap picks the matching plane count.
func TestFromGapPlaneSelection(t *testing.T) {
	if kernel.FromGap(scoring.Linear(-3)).Planes() != 1 {
		t.Fatal("linear gap must select the single-plane model")
	}
	if kernel.FromGap(scoring.Gap{Open: -11, Extend: -1}).Planes() != 3 {
		t.Fatal("affine gap must select the three-plane model")
	}
	if !kernel.Affine(0, -2).IsAffine() {
		t.Fatal("Affine(0, ext) must keep the three-plane recurrence")
	}
}
