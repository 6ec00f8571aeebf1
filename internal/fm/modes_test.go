package fm_test

import (
	"strings"
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/fm"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

var allModes = []align.Mode{
	align.Global,
	align.Overlap,
	align.FitBInA,
	align.FitAInB,
	{FreeStartA: true},
	{FreeEndB: true},
	{FreeStartA: true, FreeEndB: true},
	{FreeStartB: true, FreeEndA: true},
}

// TestAlignModeMatchesOracle checks every mode against the exhaustive
// mode-aware path enumerator on tiny inputs.
func TestAlignModeMatchesOracle(t *testing.T) {
	gap := scoring.Linear(-3)
	for _, md := range allModes {
		for seed := int64(0); seed < 12; seed++ {
			a, b := testutil.RandomPair(int(seed%6)+1, int((seed+2)%6)+1, seq.DNA, seed+300)
			m := testutil.RandomMatrix(seq.DNA, seed+300)
			res, err := fm.AlignMode(a, b, m, gap, md, nil, nil)
			if err != nil {
				t.Fatalf("%v seed %d: %v", md, seed, err)
			}
			want := testutil.EnumerateBestMode(a, b, m, gap, md)
			if res.Score != want {
				t.Fatalf("%v seed %d: score %d, oracle %d", md, seed, res.Score, want)
			}
			if err := res.Path.Validate(a.Len(), b.Len()); err != nil {
				t.Fatalf("%v seed %d: %v", md, seed, err)
			}
			if got := align.ScorePathMode(a, b, res.Path, m, gap, md); got != res.Score {
				t.Fatalf("%v seed %d: path rescoring %d != %d", md, seed, got, res.Score)
			}
		}
	}
}

// TestAlignModeOverlapDetectsOverlap: the classic overlap use case — the
// suffix of A equals the prefix of B; overlap mode must align exactly that
// region with no terminal-gap charge.
func TestAlignModeOverlapDetectsOverlap(t *testing.T) {
	shared := seq.Random("s", 50, seq.DNA, 601).String()
	a := seq.MustNew("a", seq.Random("", 70, seq.DNA, 602).String()+shared, seq.DNA)
	b := seq.MustNew("b", shared+seq.Random("", 90, seq.DNA, 603).String(), seq.DNA)
	res, err := fm.AlignMode(a, b, scoring.DNASimple, scoring.Linear(-4), align.Overlap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 50*5 {
		t.Fatalf("overlap score %d < %d (perfect 50-base overlap)", res.Score, 50*5)
	}
	// Global alignment of the same pair is dominated by terminal gaps.
	global, err := fm.Align(a, b, scoring.DNASimple, scoring.Linear(-4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if global.Score >= res.Score {
		t.Fatalf("global %d should be far below overlap %d here", global.Score, res.Score)
	}
}

// TestAlignModeFit embeds B inside A and checks the fit mode recovers it.
func TestAlignModeFit(t *testing.T) {
	inner := seq.Random("inner", 40, seq.DNA, 611)
	a := seq.MustNew("a", seq.Random("", 60, seq.DNA, 612).String()+inner.String()+seq.Random("", 60, seq.DNA, 613).String(), seq.DNA)
	res, err := fm.AlignMode(a, inner, scoring.DNASimple, scoring.Linear(-4), align.FitBInA, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 40*5 {
		t.Fatalf("fit score %d, want %d (perfect embedded copy)", res.Score, 40*5)
	}
	// The path must be: free Ups, 40 Diags, free Ups.
	ps := res.Path.String()
	if strings.Count(ps, "D") != 40 || strings.Contains(strings.Trim(ps, "U"), "U") {
		t.Fatalf("fit path unexpected: %s", ps)
	}
}

func TestModeParsingAndString(t *testing.T) {
	for name, want := range map[string]align.Mode{
		"global": align.Global, "": align.Global,
		"overlap": align.Overlap, "semiglobal": align.Overlap,
		"fit": align.FitBInA, "fit-a-in-b": align.FitAInB,
	} {
		got, err := align.ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := align.ParseMode("sideways"); err == nil {
		t.Fatal("unknown mode must fail")
	}
	if align.Overlap.String() != "overlap" || !align.Global.IsGlobal() {
		t.Fatal("mode helpers broken")
	}
	if !strings.Contains((align.Mode{FreeStartA: true}).String(), "true") {
		t.Fatal("custom mode rendering broken")
	}
}

// TestScorePathModeTrimming: free terminal runs contribute nothing,
// interleaved order of leading Up/Left runs notwithstanding.
func TestScorePathModeTrimming(t *testing.T) {
	a := seq.MustNew("a", "AC", seq.DNA)
	b := seq.MustNew("b", "AC", seq.DNA)
	m := scoring.DNAStrict // +1/-1
	gap := scoring.Linear(-2)
	// Path LLUU DD is invalid for 2x2... use a=3 residues, b=3:
	a3 := seq.MustNew("a", "GAC", seq.DNA)
	b3 := seq.MustNew("b", "TAC", seq.DNA)
	// Path: U L D D — leading U (dangling G), leading L (dangling T), then align AC/AC.
	p, err := align.ParseCIGAR("1I1D2M")
	if err != nil {
		t.Fatal(err)
	}
	full := align.ScorePath(a3, b3, p, m, gap)
	if full != -2-2+2 {
		t.Fatalf("charged score = %d", full)
	}
	// Only the FIRST run is free: the Up run is trimmed, the following
	// Left run stays charged (standard ends-free semantics).
	if got := align.ScorePathMode(a3, b3, p, m, gap, align.Overlap); got != -2+2 {
		t.Fatalf("overlap score = %d, want 0", got)
	}
	// Reversed leading order (L then U): the Left run is free, the Up run
	// charged — same total here.
	p2, err := align.ParseCIGAR("1D1I2M")
	if err != nil {
		t.Fatal(err)
	}
	if got := align.ScorePathMode(a3, b3, p2, m, gap, align.Overlap); got != -2+2 {
		t.Fatalf("overlap score (LU order) = %d, want 0", got)
	}
	// Only FreeStartA: the leading Up run is free in UL order...
	if got := align.ScorePathMode(a3, b3, p, m, gap, align.Mode{FreeStartA: true}); got != -2+2 {
		t.Fatalf("freeStartA score = %d, want 0", got)
	}
	// ...but in LU order the first run is a Left, which FreeStartA does not
	// cover, so nothing is trimmed.
	if got := align.ScorePathMode(a3, b3, p2, m, gap, align.Mode{FreeStartA: true}); got != -2-2+2 {
		t.Fatalf("freeStartA (LU order) score = %d, want -2", got)
	}
	_ = a
	_ = b
}

// TestAlignModeAffineMatchesOracle checks the affine ends-free engine
// against the exhaustive mode-aware enumerator.
func TestAlignModeAffineMatchesOracle(t *testing.T) {
	gap := scoring.Affine(-5, -2)
	for _, md := range allModes {
		for seed := int64(0); seed < 10; seed++ {
			a, b := testutil.RandomPair(int(seed%6)+1, int((seed+2)%6)+1, seq.DNA, seed+350)
			m := testutil.RandomMatrix(seq.DNA, seed+350)
			res, err := fm.AlignMode(a, b, m, gap, md, nil, nil)
			if err != nil {
				t.Fatalf("%v seed %d: %v", md, seed, err)
			}
			want := testutil.EnumerateBestMode(a, b, m, gap, md)
			if res.Score != want {
				t.Fatalf("%v seed %d (%q x %q): affine score %d, oracle %d", md, seed, a, b, res.Score, want)
			}
			if err := res.Path.Validate(a.Len(), b.Len()); err != nil {
				t.Fatalf("%v seed %d: %v", md, seed, err)
			}
			if got := align.ScorePathMode(a, b, res.Path, m, gap, md); got != res.Score {
				t.Fatalf("%v seed %d: path rescoring %d != %d", md, seed, got, res.Score)
			}
		}
	}
}

// TestAlignModeAffineOverlap: overlap mode with affine gaps on a planted
// overlap pair.
func TestAlignModeAffineOverlap(t *testing.T) {
	shared := seq.Random("s", 40, seq.DNA, 621).String()
	a := seq.MustNew("a", seq.Random("", 50, seq.DNA, 622).String()+shared, seq.DNA)
	b := seq.MustNew("b", shared+seq.Random("", 60, seq.DNA, 623).String(), seq.DNA)
	res, err := fm.AlignMode(a, b, scoring.DNASimple, scoring.Affine(-10, -2), align.Overlap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 40*5 {
		t.Fatalf("affine overlap score %d < 200", res.Score)
	}
}
