package core_test

import (
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/core"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

func TestAlignModeOverlapAssembly(t *testing.T) {
	// Fragment assembly: suffix of A overlaps prefix of B by 120 bases,
	// with a few mutations.
	shared := seq.Random("s", 120, seq.DNA, 701)
	mut, err := (seq.MutationModel{SubstitutionRate: 0.05}).Mutate("m", shared, 702)
	if err != nil {
		t.Fatal(err)
	}
	a := seq.MustNew("a", seq.Random("", 400, seq.DNA, 703).String()+shared.String(), seq.DNA)
	b := seq.MustNew("b", mut.String()+seq.Random("", 500, seq.DNA, 704).String(), seq.DNA)
	// Gap -12 keeps random-flank alignments in the negative-drift regime, so
	// the planted overlap is the unique high-scoring structure.
	res, err := core.AlignMode(a, b, scoring.DNASimple, scoring.Linear(-12), align.Overlap, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 120*5*7/10 {
		t.Fatalf("overlap score %d too low for a 120-base 95%% overlap", res.Score)
	}
	// The aligned (charged) core must start near A's suffix and B's prefix:
	// leading free Up run consumes most of A.
	moves := res.Path.Moves()
	ups := 0
	for _, mv := range moves {
		if mv != align.Up {
			break
		}
		ups++
	}
	if ups < 300 {
		t.Fatalf("expected a long free leading Up run, got %d", ups)
	}
}

func TestAlignModeParallel(t *testing.T) {
	a, b := testutil.HomologousPair(900, seq.DNA, 705)
	gap := scoring.Linear(-4)
	want, err := core.AlignMode(a, b, scoring.DNASimple, gap, align.Overlap, core.Options{K: 4, BaseCells: 256, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.AlignMode(a, b, scoring.DNASimple, gap, align.Overlap, core.Options{
		K: 4, BaseCells: 256, Workers: 4, ParallelFillCells: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || !got.Path.Equal(want.Path) {
		t.Fatal("parallel mode run diverges from sequential")
	}
}

func TestAlignModeValidation(t *testing.T) {
	a, b := testutil.RandomPair(5, 5, seq.DNA, 1)
	if _, err := core.AlignMode(a, b, scoring.DNASimple, scoring.Linear(1), align.Overlap, core.Options{}); err == nil {
		t.Fatal("invalid gap must be rejected")
	}
	// Global mode delegates to Align.
	want, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-2), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.AlignMode(a, b, scoring.DNASimple, scoring.Linear(-2), align.Global, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Path.Equal(want.Path) {
		t.Fatal("global mode must delegate")
	}
}
