package significance_test

import (
	"math"
	"strings"
	"testing"

	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/significance"
)

func fitDNA(t *testing.T) significance.Params {
	t.Helper()
	p, err := significance.Estimate(scoring.DNASimple, scoring.Linear(-12), significance.Options{
		SampleLen: 150,
		Samples:   60,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEstimateBasics(t *testing.T) {
	p := fitDNA(t)
	if p.Lambda <= 0 || p.K <= 0 {
		t.Fatalf("fit %+v", p)
	}
	if p.MeanScore <= 0 || p.StdDev <= 0 {
		t.Fatalf("moments %+v", p)
	}
	if !strings.Contains(p.String(), "lambda") {
		t.Fatalf("string %q", p.String())
	}
	// Reproducible for the same seed.
	p2, err := significance.Estimate(scoring.DNASimple, scoring.Linear(-12), significance.Options{
		SampleLen: 150, Samples: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Lambda != p.Lambda || p2.K != p.K {
		t.Fatal("fit not deterministic")
	}
}

func TestEValueProperties(t *testing.T) {
	p := fitDNA(t)
	const m, n = 1000, 1_000_000
	prev := math.Inf(1)
	for s := int64(20); s <= 400; s += 20 {
		ev := p.EValue(s, m, n)
		if ev < 0 {
			t.Fatalf("E(%d) = %g negative", s, ev)
		}
		if ev > prev {
			t.Fatalf("E-value not monotone at %d: %g > %g", s, ev, prev)
		}
		prev = ev
	}
	// A huge score is essentially impossible by chance.
	if ev := p.EValue(5000, m, n); ev > 1e-6 {
		t.Fatalf("E(5000) = %g, want ~0", ev)
	}
	// E-values scale linearly with the search space.
	if r := p.EValue(100, 1000, 2000) / p.EValue(100, 1000, 1000); math.Abs(r-2) > 1e-9 {
		t.Fatalf("E-value search-space scaling ratio %g, want 2", r)
	}
	// Bit scores are increasing in the raw score.
	if p.BitScore(200) <= p.BitScore(100) {
		t.Fatal("bit score not increasing")
	}
}

// TestCalibration: scores around the simulated mean must not look
// significant for a same-sized search space, while scores far in the tail
// must.
func TestCalibration(t *testing.T) {
	p := fitDNA(t)
	area := p.SampleLen
	mid := int64(p.MeanScore)
	// The chance of at least one hit is 1 - exp(-E): at least 0.2 at the
	// mean, at most 0.05 eight deviations above it.
	if ev := p.EValue(mid, area, area); ev < -math.Log(0.8) {
		t.Fatalf("E(mean score) = %g, want large (typical score)", ev)
	}
	tail := int64(p.MeanScore + 8*p.StdDev)
	if ev := p.EValue(tail, area, area); ev > -math.Log(0.95) {
		t.Fatalf("E(mean + 8sd) = %g, want small", ev)
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := significance.Estimate(scoring.DNASimple, scoring.Affine(-5, -1), significance.Options{}); err == nil {
		t.Fatal("affine must be rejected")
	}
	if _, err := significance.Estimate(scoring.DNASimple, scoring.Linear(-12), significance.Options{Samples: 3}); err == nil {
		t.Fatal("too few samples must be rejected")
	}
	// Linear-phase scoring (cheap gaps) must be detected and rejected.
	if _, err := significance.Estimate(scoring.DNASimple, scoring.Linear(-1), significance.Options{
		SampleLen: 120, Samples: 20, Seed: 1,
	}); err == nil {
		t.Fatal("linear-phase scoring must be rejected")
	}
}

func TestEstimateWeighted(t *testing.T) {
	// GC-rich background changes the fit but still produces valid params.
	p, err := significance.Estimate(scoring.DNASimple, scoring.Linear(-12), significance.Options{
		Alphabet:    seq.DNA,
		Frequencies: []float64{1, 3, 3, 1},
		SampleLen:   120,
		Samples:     40,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lambda <= 0 || p.K <= 0 {
		t.Fatalf("weighted fit %+v", p)
	}
	if _, err := significance.Estimate(scoring.DNASimple, scoring.Linear(-12), significance.Options{
		Frequencies: []float64{1, 2}, SampleLen: 50, Samples: 20,
	}); err == nil {
		t.Fatal("wrong frequency count must fail")
	}
}

// TestEmpiricalFalsePositiveRate: on fresh random pairs (not used in the
// fit), the fraction scoring above the P=0.5 threshold should be within a
// loose band around 0.5 — a direct check that the fitted tail is calibrated.
func TestEmpiricalFalsePositiveRate(t *testing.T) {
	p := fitDNA(t)
	// Invert P(s) = 0.5 for the fit's own search space.
	area := float64(p.SampleLen) * float64(p.SampleLen)
	s50 := math.Log(p.K*area/math.Ln2) / p.Lambda
	above := 0
	const trials = 80
	for i := 0; i < trials; i++ {
		a := seq.Random("a", p.SampleLen, seq.DNA, 10_000+int64(i))
		b := seq.Random("b", p.SampleLen, seq.DNA, 20_000+int64(i))
		got, err := scoreLocal(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if float64(got) >= s50 {
			above++
		}
	}
	frac := float64(above) / trials
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("empirical rate above the P=0.5 threshold is %.2f, want ~0.5 (threshold %.1f)", frac, s50)
	}
}

func scoreLocal(a, b *seq.Sequence) (int64, error) {
	s, _, _, err := kernel.New(scoring.DNASimple, kernel.FromGap(scoring.Linear(-12)), nil, nil).LocalScore(a.Residues, b.Residues)
	return s, err
}
