package fm_test

import (
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/fm"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// TestAlignCompactBudget: the compact variant must fit in roughly 1/8 the
// budget of the score-matrix variant.
func TestAlignCompactBudget(t *testing.T) {
	a, b := testutil.RandomPair(300, 300, seq.DNA, 3)
	full := int64(301) * 301
	budget, err := memory.NewBudget(full/4 + 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(-4), budget, nil); err == nil {
		t.Fatal("score-matrix variant must exceed a quarter-size budget")
	}
	if _, err := fm.AlignCompact(a, b, scoring.DNASimple, scoring.Linear(-4), budget, nil); err != nil {
		t.Fatalf("compact variant must fit: %v", err)
	}
	if budget.Used() != 0 {
		t.Fatalf("budget leak: %d", budget.Used())
	}
}

func TestAlignCompactEdges(t *testing.T) {
	empty := seq.MustNew("e", "", seq.DNA)
	b := seq.MustNew("b", "ACG", seq.DNA)
	res, err := fm.AlignCompact(empty, b, scoring.DNAStrict, scoring.Linear(-1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path.String() != "LLL" || res.Score != -3 {
		t.Fatalf("got %d %q", res.Score, res.Path)
	}
	if _, err := fm.AlignCompact(b, b, scoring.DNAStrict, scoring.Affine(-3, -1), nil, nil); err == nil {
		t.Fatal("affine must be rejected")
	}
}

// enumerateOptimalCount counts optimal paths by brute force for tiny inputs.
func enumerateOptimalCount(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap) int64 {
	best := testutil.EnumerateBest(a, b, m, gap)
	var count int64
	moves := make([]align.Move, 0, a.Len()+b.Len())
	var walk func(i, j int)
	walk = func(i, j int) {
		if i == a.Len() && j == b.Len() {
			if align.ScorePath(a, b, align.NewPath(moves), m, gap) == best {
				count++
			}
			return
		}
		if i < a.Len() && j < b.Len() {
			moves = append(moves, align.Diag)
			walk(i+1, j+1)
			moves = moves[:len(moves)-1]
		}
		if i < a.Len() {
			moves = append(moves, align.Up)
			walk(i+1, j)
			moves = moves[:len(moves)-1]
		}
		if j < b.Len() {
			moves = append(moves, align.Left)
			walk(i, j+1)
			moves = moves[:len(moves)-1]
		}
	}
	walk(0, 0)
	return count
}

// TestCountOptimalPaths compares the direction-bit path counter against
// exhaustive enumeration.
func TestCountOptimalPaths(t *testing.T) {
	gap := scoring.Linear(-2)
	for seed := int64(0); seed < 15; seed++ {
		a, b := testutil.RandomPair(int(seed%5)+1, int((seed+3)%5)+1, seq.DNA, seed+450)
		m := testutil.RandomMatrix(seq.DNA, seed+450)
		got, err := fm.CountOptimalPaths(a, b, m, gap, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := enumerateOptimalCount(a, b, m, gap)
		if got != want {
			t.Fatalf("seed %d (%q vs %q): counted %d, oracle %d", seed, a, b, got, want)
		}
	}
}

// TestCountOptimalPathsDegenerate: an all-identical pair under a uniform
// matrix has a known path count; also exercises saturation.
func TestCountOptimalPathsDegenerate(t *testing.T) {
	// Aligning AA vs AA with match 2, mismatch/gap penalties: unique path.
	a := seq.MustNew("a", "AA", seq.DNA)
	m, err := scoring.Uniform(seq.DNA, 2, -3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fm.CountOptimalPaths(a, a, m, scoring.Linear(-3), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("identical pair: %d optimal paths, want 1", got)
	}
	// The paper states of Figure 1: "in our example, there is a single
	// optimal path" (the two 5-identity alignments of §1.1 tie on identical
	// letters, not on the score-82 objective).
	got, err = fm.CountOptimalPaths(testutil.Figure1A, testutil.Figure1B, scoring.Table1, scoring.PaperGap, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("Figure 1 example: %d optimal paths, want exactly 1 (paper: single optimal path)", got)
	}
	// Saturation clamps at the limit.
	long := seq.MustNew("l", "AAAAAAAAAA", seq.DNA)
	other := seq.MustNew("o", "TTTTTTTTTT", seq.DNA)
	sat, err := fm.CountOptimalPaths(long, other, scoring.DNAStrict, scoring.Linear(-1), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sat > 5 {
		t.Fatalf("saturated count %d exceeds limit", sat)
	}
}
