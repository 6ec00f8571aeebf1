// Package significance estimates the statistical significance of local
// alignment scores — the question a homology search must answer about every
// hit ("is score 57 against this database surprising?"). Optimal local
// scores of unrelated random sequences follow an extreme-value (Gumbel)
// distribution; the package fits its parameters (lambda, K) by Monte-Carlo
// simulation against the chosen scoring system and converts raw scores into
// E-values and bit scores, Karlin-Altschul style. Everything is
// deterministic for a fixed seed.
package significance

import (
	"fmt"
	"math"

	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// EulerGamma is the Euler-Mascheroni constant used by the method-of-moments
// Gumbel fit.
const EulerGamma = 0.5772156649015329

// Params are fitted extreme-value parameters for one scoring system:
// P(S >= x | random m x n) ~ 1 - exp(-K*m*n*exp(-Lambda*x)).
type Params struct {
	// Lambda is the exponential decay rate of the score tail (> 0).
	Lambda float64
	// K is the search-space scale factor (> 0).
	K float64
	// SampleLen and Samples record how the fit was produced.
	SampleLen int
	Samples   int
	// MeanScore and StdDev of the simulated optimal local scores.
	MeanScore, StdDev float64
}

// Options configures the Monte-Carlo fit.
type Options struct {
	// Alphabet of the random sequences (nil selects the matrix's alphabet...
	// which the caller supplies explicitly, since matrices know theirs).
	Alphabet *seq.Alphabet
	// Frequencies weights the residue letters (nil = uniform).
	Frequencies []float64
	// SampleLen is the length of each simulated sequence (0 selects 200).
	SampleLen int
	// Samples is the number of simulated pairs (0 selects 100).
	Samples int
	// Seed makes the fit reproducible.
	Seed int64
	// Counters, when non-nil, accumulates the simulation's DP cells.
	Counters *stats.Counters
}

// Estimate fits Gumbel parameters for (matrix, gap) by simulating optimal
// local alignment scores of unrelated random sequences. Linear gap models
// only (the local scan is linear-gap). It fails when the scoring system is
// in the "linear phase" (expected local score grows linearly with length),
// where no Gumbel statistics exist — the caller should use stricter
// penalties.
func Estimate(m *scoring.Matrix, gap scoring.Gap, opt Options) (Params, error) {
	if err := gap.Validate(); err != nil {
		return Params{}, err
	}
	if !gap.IsLinear() {
		return Params{}, fmt.Errorf("significance: affine gap models not supported (use linear)")
	}
	alphabet := opt.Alphabet
	if alphabet == nil {
		alphabet = m.Alphabet
	}
	sampleLen := opt.SampleLen
	if sampleLen == 0 {
		sampleLen = 200
	}
	samples := opt.Samples
	if samples == 0 {
		samples = 100
	}
	if samples < 10 {
		return Params{}, fmt.Errorf("significance: %d samples is too few (want >= 10)", samples)
	}

	scores := make([]float64, samples)
	scan := kernel.New(m, kernel.FromGap(gap), nil, opt.Counters)
	for i := 0; i < samples; i++ {
		a, b, err := randomPair(alphabet, opt.Frequencies, sampleLen, opt.Seed+int64(i)*2654435761)
		if err != nil {
			return Params{}, err
		}
		s, _, _, err := scan.LocalScore(a.Residues, b.Residues)
		if err != nil {
			return Params{}, err
		}
		scores[i] = float64(s)
	}

	mean, sd := meanStd(scores)
	if sd <= 0 {
		return Params{}, fmt.Errorf("significance: degenerate score distribution (sd = 0)")
	}
	// Linear-phase guard: in the log phase the expected optimal score grows
	// ~log(m*n); anything near linear in the length means no Gumbel tail.
	if mean > 0.25*float64(sampleLen)*float64(-gap.Extend) {
		return Params{}, fmt.Errorf("significance: scoring system appears to be in the linear phase (mean local score %.1f for length %d); use stricter penalties", mean, sampleLen)
	}

	// Method of moments for the Gumbel(mu, 1/lambda) family:
	// sd = pi / (lambda * sqrt(6));  mean = mu + gamma / lambda;
	// mu = ln(K*m*n) / lambda.
	lambda := math.Pi / (sd * math.Sqrt(6))
	mu := mean - EulerGamma/lambda
	area := float64(sampleLen) * float64(sampleLen)
	k := math.Exp(lambda*mu) / area
	if !(lambda > 0) || !(k > 0) || math.IsInf(k, 0) || math.IsNaN(k) {
		return Params{}, fmt.Errorf("significance: fit failed (lambda=%g, K=%g)", lambda, k)
	}
	return Params{
		Lambda:    lambda,
		K:         k,
		SampleLen: sampleLen,
		Samples:   samples,
		MeanScore: mean,
		StdDev:    sd,
	}, nil
}

// EValue is the expected number of chance hits with score >= s in an
// m x n search space.
func (p Params) EValue(s int64, m, n int) float64 {
	return p.K * float64(m) * float64(n) * math.Exp(-p.Lambda*float64(s))
}

// BitScore normalises a raw score into bits, comparable across scoring
// systems: S' = (lambda*S - ln K) / ln 2.
func (p Params) BitScore(s int64) float64 {
	return (p.Lambda*float64(s) - math.Log(p.K)) / math.Ln2
}

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("gumbel(lambda=%.4f, K=%.4g; fit on %d pairs of length %d)",
		p.Lambda, p.K, p.Samples, p.SampleLen)
}

func randomPair(a *seq.Alphabet, freqs []float64, n int, seed int64) (*seq.Sequence, *seq.Sequence, error) {
	if freqs == nil {
		return seq.Random("ra", n, a, seed), seq.Random("rb", n, a, seed+1), nil
	}
	x, err := seq.RandomWeighted("ra", n, a, freqs, seed)
	if err != nil {
		return nil, nil, err
	}
	y, err := seq.RandomWeighted("rb", n, a, freqs, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return x, y, nil
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd = math.Sqrt(ss / float64(len(xs)-1))
	return mean, sd
}
