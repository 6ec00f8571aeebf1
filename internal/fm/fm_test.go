package fm_test

import (
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/fm"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

// TestFigure1 reproduces the paper's worked example end to end: the modified
// Dayhoff Table 1 scores with gap -10 align TDVLKAD against TLDKLLKD with
// optimal score 82 (experiment E1).
func TestFigure1(t *testing.T) {
	res, err := fm.Align(testutil.Figure1A, testutil.Figure1B, scoring.Table1, scoring.PaperGap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != testutil.Figure1Score {
		t.Fatalf("score = %d, want %d", res.Score, testutil.Figure1Score)
	}
	al, err := align.New(testutil.Figure1A, testutil.Figure1B, res.Path, res.Score)
	if err != nil {
		t.Fatal(err)
	}
	rowA, rowB := al.Rows()
	// The paper lists two optimal alignments; both have 9 columns and
	// rescore to 82. Check shape and score rather than one specific tie.
	if len(rowA) != len(rowB) {
		t.Fatalf("row lengths differ: %d vs %d", len(rowA), len(rowB))
	}
	if got := al.Rescore(scoring.Table1, scoring.PaperGap); got != 82 {
		t.Fatalf("rescore = %d, want 82", got)
	}
}

// TestFigure1MatrixValues spot-checks DPM entries the paper prints in
// Figure 1 (computed via prefix alignments).
func TestFigure1MatrixValues(t *testing.T) {
	// D[1][1] = 20 ([T,T]), D[1][2] = 10 ([T,L]), D[2][3] = 30 ([D,D] in
	// paper's path), and the corner D[7][8] = 82.
	cases := []struct {
		ar, bc int
		want   int64
	}{
		{1, 1, 20},
		{1, 2, 10},
		{2, 3, 30},
		{7, 8, 82},
	}
	for _, tc := range cases {
		a := testutil.Figure1A.Slice(0, tc.ar)
		b := testutil.Figure1B.Slice(0, tc.bc)
		res, err := fm.Align(a, b, scoring.Table1, scoring.PaperGap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != tc.want {
			t.Errorf("D[%d][%d] = %d, want %d", tc.ar, tc.bc, res.Score, tc.want)
		}
	}
}

func TestAlignMatchesExhaustiveOracle(t *testing.T) {
	gap := scoring.Linear(-3)
	for seed := int64(0); seed < 20; seed++ {
		a, b := testutil.RandomPair(int(seed%6)+1, int((seed+3)%7)+1, seq.DNA, seed)
		m := testutil.RandomMatrix(seq.DNA, seed)
		res, err := fm.Align(a, b, m, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := testutil.EnumerateBest(a, b, m, gap)
		if res.Score != int64(want) {
			t.Fatalf("seed %d: score %d, oracle %d", seed, res.Score, want)
		}
		if msg := testutil.CheckAlignment(a, b, res.Path, res.Score, m, gap); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func TestAlignAffineMatchesExhaustiveOracle(t *testing.T) {
	gap := scoring.Affine(-5, -2)
	for seed := int64(0); seed < 20; seed++ {
		a, b := testutil.RandomPair(int(seed%6)+1, int((seed+2)%6)+1, seq.DNA, seed+100)
		m := testutil.RandomMatrix(seq.DNA, seed+100)
		res, err := fm.Align(a, b, m, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := testutil.EnumerateBest(a, b, m, gap)
		if res.Score != int64(want) {
			t.Fatalf("seed %d: affine score %d, oracle %d", seed, res.Score, want)
		}
		if msg := testutil.CheckAlignment(a, b, res.Path, res.Score, m, gap); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func TestAlignEmptySequences(t *testing.T) {
	gap := scoring.Linear(-2)
	m := scoring.DNAStrict
	empty := seq.MustNew("e", "", seq.DNA)
	b := seq.MustNew("b", "ACGT", seq.DNA)

	res, err := fm.Align(empty, b, m, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != -8 {
		t.Fatalf("empty vs ACGT score = %d, want -8", res.Score)
	}
	if got := res.Path.String(); got != "LLLL" {
		t.Fatalf("path = %q, want LLLL", got)
	}

	res, err = fm.Align(b, empty, m, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Path.String(); got != "UUUU" {
		t.Fatalf("path = %q, want UUUU", got)
	}

	res, err = fm.Align(empty, empty, m, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 || res.Path.Len() != 0 {
		t.Fatalf("empty vs empty: score %d len %d", res.Score, res.Path.Len())
	}
}

func TestAlignBudgetRejection(t *testing.T) {
	b, err := memory.NewBudget(10)
	if err != nil {
		t.Fatal(err)
	}
	x, y := testutil.RandomPair(50, 50, seq.DNA, 1)
	if _, err := fm.Align(x, y, scoring.DNASimple, scoring.Linear(-4), b, nil); err == nil {
		t.Fatal("expected budget rejection for 51x51 matrix against 10-entry budget")
	}
	if b.Used() != 0 {
		t.Fatalf("budget leak: %d entries still reserved", b.Used())
	}
}

func TestAlignCountsCells(t *testing.T) {
	var c stats.Counters
	a, b := testutil.RandomPair(13, 17, seq.DNA, 2)
	if _, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(-4), nil, &c); err != nil {
		t.Fatal(err)
	}
	if got := c.Cells.Load(); got != 13*17 {
		t.Fatalf("cells = %d, want %d", got, 13*17)
	}
}

func TestGapValidation(t *testing.T) {
	a, b := testutil.RandomPair(4, 4, seq.DNA, 3)
	if _, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(0), nil, nil); err == nil {
		t.Fatal("gap penalty 0 must be rejected")
	}
	if _, err := fm.Align(a, b, scoring.DNASimple, scoring.Affine(3, -1), nil, nil); err == nil {
		t.Fatal("positive gap open must be rejected")
	}
}

func TestAlignLocalBasics(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	// Identical core ACGTACGT embedded in unrelated flanks.
	a := seq.MustNew("a", "TTTTACGTACGTTTTT", seq.DNA)
	b := seq.MustNew("b", "GGGGGACGTACGTGGG", seq.DNA)
	res, err := fm.AlignLocal(a, b, m, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatalf("expected positive local score, got %d", res.Score)
	}
	subA := a.Slice(res.StartA, res.EndA)
	subB := b.Slice(res.StartB, res.EndB)
	if msg := testutil.CheckAlignment(subA, subB, res.Path, res.Score, m, gap); msg != "" {
		t.Fatal(msg)
	}
	// The shared 8-mer (plus the mutual T at the flank boundary) must be
	// found: score at least 8 matches * 5.
	if res.Score < 40 {
		t.Fatalf("local score %d < 40; found %q vs %q", res.Score, subA, subB)
	}
}

func TestAlignLocalAllNegative(t *testing.T) {
	// Disjoint alphabet halves: every pair mismatches.
	a := seq.MustNew("a", "AAAA", seq.DNA)
	b := seq.MustNew("b", "TTTT", seq.DNA)
	res, err := fm.AlignLocal(a, b, scoring.DNASimple, scoring.Linear(-4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 || res.Path.Len() != 0 {
		t.Fatalf("expected empty local alignment, got score %d len %d", res.Score, res.Path.Len())
	}
}

// TestAlignLocalIsBestOverSubranges cross-checks Smith-Waterman against
// global alignments of all subranges on tiny inputs.
func TestAlignLocalIsBestOverSubranges(t *testing.T) {
	gap := scoring.Linear(-3)
	for seed := int64(0); seed < 8; seed++ {
		a, b := testutil.RandomPair(5, 6, seq.DNA, seed+40)
		m := testutil.RandomMatrix(seq.DNA, seed+40)
		res, err := fm.AlignLocal(a, b, m, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		best := int64(0)
		for i0 := 0; i0 <= a.Len(); i0++ {
			for i1 := i0; i1 <= a.Len(); i1++ {
				for j0 := 0; j0 <= b.Len(); j0++ {
					for j1 := j0; j1 <= b.Len(); j1++ {
						if i0 == i1 && j0 == j1 {
							continue
						}
						s := testutil.EnumerateBest(a.Slice(i0, i1), b.Slice(j0, j1), m, gap)
						if int64(s) > best {
							best = int64(s)
						}
					}
				}
			}
		}
		if res.Score != best {
			t.Fatalf("seed %d: local score %d, subrange oracle %d", seed, res.Score, best)
		}
	}
}

func TestScoreLocalMatchesAlignLocal(t *testing.T) {
	gap := scoring.Linear(-4)
	for seed := int64(0); seed < 10; seed++ {
		a, b := testutil.RandomPair(int(seed*7%80)+1, int(seed*13%80)+1, seq.DNA, seed+960)
		m := testutil.RandomMatrix(seq.DNA, seed+960)
		full, err := fm.AlignLocal(a, b, m, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		score, endA, endB, err := kernel.New(m, kernel.FromGap(gap), nil, nil).LocalScore(a.Residues, b.Residues)
		if err != nil {
			t.Fatal(err)
		}
		if score != full.Score {
			t.Fatalf("seed %d: scan %d, full %d", seed, score, full.Score)
		}
		if score > 0 && (endA != full.EndA || endB != full.EndB) {
			t.Fatalf("seed %d: scan end (%d,%d), full end (%d,%d)", seed, endA, endB, full.EndA, full.EndB)
		}
	}
}

// TestScoreLocalAffineMatchesAlignLocal is the affine counterpart: the
// rolling-row Gotoh scan agrees with the stored-matrix local solve.
func TestScoreLocalAffineMatchesAlignLocal(t *testing.T) {
	gap := scoring.Affine(-5, -1)
	for seed := int64(0); seed < 8; seed++ {
		a, b := testutil.RandomPair(int(seed*7%60)+1, int(seed*13%60)+1, seq.Protein, seed+530)
		m := testutil.RandomMatrix(seq.Protein, seed+530)
		full, err := fm.AlignLocal(a, b, m, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		score, endA, endB, err := kernel.New(m, kernel.FromGap(gap), nil, nil).LocalScore(a.Residues, b.Residues)
		if err != nil {
			t.Fatal(err)
		}
		if score != full.Score {
			t.Fatalf("seed %d: scan %d, full %d", seed, score, full.Score)
		}
		if score > 0 && (endA != full.EndA || endB != full.EndB) {
			t.Fatalf("seed %d: scan end (%d,%d), full end (%d,%d)", seed, endA, endB, full.EndA, full.EndB)
		}
	}
}
