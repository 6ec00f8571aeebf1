package fastlsa_test

import (
	"testing"

	"fastlsa"
)

// TestFacadeModes exercises the ends-free modes through the public API and
// cross-checks the FastLSA and full-matrix engines.
func TestFacadeModes(t *testing.T) {
	shared := fastlsa.RandomSequence("s", 80, fastlsa.DNA, 881).String()
	a, err := fastlsa.NewSequence("a", fastlsa.RandomSequence("", 120, fastlsa.DNA, 882).String()+shared, fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastlsa.NewSequence("b", shared+fastlsa.RandomSequence("", 150, fastlsa.DNA, 883).String(), fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	base := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-12), Mode: fastlsa.ModeOverlap, Workers: 1}

	alLSA, err := fastlsa.Align(a, b, base)
	if err != nil {
		t.Fatal(err)
	}
	optFM := base
	optFM.Algorithm = fastlsa.AlgoFullMatrix
	alFM, err := fastlsa.Align(a, b, optFM)
	if err != nil {
		t.Fatal(err)
	}
	if alLSA.Score != alFM.Score {
		t.Fatalf("mode engines disagree: %d vs %d", alLSA.Score, alFM.Score)
	}
	if alLSA.Score < 80*5 {
		t.Fatalf("overlap score %d below the perfect 80-base overlap", alLSA.Score)
	}
	// Score() agrees.
	sc, err := fastlsa.Score(a, b, base)
	if err != nil {
		t.Fatal(err)
	}
	if sc != alLSA.Score {
		t.Fatalf("Score()=%d, Align()=%d", sc, alLSA.Score)
	}
	// Hirschberg + mode is rejected.
	optH := base
	optH.Algorithm = fastlsa.AlgoHirschberg
	if _, err := fastlsa.Align(a, b, optH); err == nil {
		t.Fatal("hirschberg + mode must be rejected")
	}
	// Affine + mode is supported; the two engines must agree and Score must
	// match Align.
	optAff := base
	optAff.Gap = fastlsa.Affine(-10, -2)
	alAff, err := fastlsa.Align(a, b, optAff)
	if err != nil {
		t.Fatal(err)
	}
	optAffFM := optAff
	optAffFM.Algorithm = fastlsa.AlgoFullMatrix
	alAffFM, err := fastlsa.Align(a, b, optAffFM)
	if err != nil {
		t.Fatal(err)
	}
	if alAff.Score != alAffFM.Score {
		t.Fatalf("affine mode engines disagree: %d vs %d", alAff.Score, alAffFM.Score)
	}
	scAff, err := fastlsa.Score(a, b, optAff)
	if err != nil {
		t.Fatal(err)
	}
	if scAff != alAff.Score {
		t.Fatalf("affine mode Score()=%d, Align()=%d", scAff, alAff.Score)
	}
}

func TestFacadeCompactEngine(t *testing.T) {
	x, y, err := fastlsa.HomologousPair(300, fastlsa.DNA, fastlsa.DefaultHomology, 884)
	if err != nil {
		t.Fatal(err)
	}
	base := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Workers: 1}
	ref, err := fastlsa.Align(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	optC := base
	optC.Algorithm = fastlsa.AlgoCompact
	got, err := fastlsa.Align(x, y, optC)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != ref.Score || !got.Path.Equal(ref.Path) {
		t.Fatal("compact engine diverges")
	}
	// Name round trip.
	algo, err := fastlsa.ParseAlgorithm("compact")
	if err != nil || algo != fastlsa.AlgoCompact || algo.String() != "compact" {
		t.Fatalf("compact parsing broken: %v %v", algo, err)
	}
	// Compact + affine rejected.
	optC.Gap = fastlsa.Affine(-5, -1)
	if _, err := fastlsa.Align(x, y, optC); err == nil {
		t.Fatal("compact + affine must be rejected")
	}
}

func TestFacadeModeParsing(t *testing.T) {
	for name, want := range map[string]fastlsa.Mode{
		"global":  fastlsa.ModeGlobal,
		"overlap": fastlsa.ModeOverlap,
		"fit":     fastlsa.ModeFitBInA,
	} {
		got, err := fastlsa.ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
}

func TestFacadeBanded(t *testing.T) {
	x, y, err := fastlsa.HomologousPair(400, fastlsa.DNA, fastlsa.DefaultHomology, 885)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Workers: 1}
	full, err := fastlsa.Align(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Band 0 runs FastLSA, which is exact.
	banded, err := fastlsa.AlignBanded(x, y, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if banded.Score != full.Score {
		t.Fatalf("band 0 %d != full %d", banded.Score, full.Score)
	}
	// A fixed wide band is exact too.
	banded, err = fastlsa.AlignBanded(x, y, opt, 500)
	if err != nil {
		t.Fatal(err)
	}
	if banded.Score != full.Score {
		t.Fatalf("wide banded %d != full %d", banded.Score, full.Score)
	}
}

// TestFacadeBandedShiftedRepeat: a = R1+S, b = S+R2 puts the optimal path
// on diagonal |R| = 49, outside any narrow band around the main diagonal.
// AlignBanded(…, 0) must still return the optimum.
func TestFacadeBandedShiftedRepeat(t *testing.T) {
	matrix, err := fastlsa.MatrixByName("dna")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastlsa.Options{Matrix: matrix, Gap: fastlsa.Linear(-6), Workers: 1}
	for seed := int64(1); seed <= 8; seed++ {
		r1 := fastlsa.RandomSequence("r1", 49, fastlsa.DNA, 3*seed)
		s := fastlsa.RandomSequence("s", 316, fastlsa.DNA, 3*seed+1)
		r2 := fastlsa.RandomSequence("r2", 49, fastlsa.DNA, 3*seed+2)
		a, err := fastlsa.NewSequence("a", r1.String()+s.String(), fastlsa.DNA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fastlsa.NewSequence("b", s.String()+r2.String(), fastlsa.DNA)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fastlsa.Score(a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fastlsa.AlignBanded(a, b, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want {
			t.Errorf("seed %d: band 0 score %d, optimum %d", seed, got.Score, want)
		}
	}
}
