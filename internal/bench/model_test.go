package bench_test

import (
	"math"
	"testing"

	"fastlsa/internal/bench"
)

func TestSimulateFastLSABasics(t *testing.T) {
	cfg := bench.ModelConfig{K: 16, BaseCells: 4096, Workers: 1}
	par, work := bench.SimulateFastLSA(2000, 2000, cfg)
	if par != work {
		t.Fatalf("P=1: parallel time %d != work %d", par, work)
	}
	// Work is within the Theorem-2 envelope (plus traceback slack).
	area := float64(2000 * 2000)
	bound := area * (256.0 / 225.0) * 1.15
	if float64(work) > bound {
		t.Fatalf("model work %d exceeds Theorem-2 envelope %.0f", work, bound)
	}
	if float64(work) < area {
		t.Fatalf("model work %d below the mandatory m*n", work)
	}
}

func TestSimulateFastLSAMonotoneInWorkers(t *testing.T) {
	prev := int64(1 << 62)
	for _, p := range []int{1, 2, 4, 8, 16} {
		cfg := bench.ModelConfig{K: 16, BaseCells: 4096, Workers: p}
		par, _ := bench.SimulateFastLSA(3000, 3000, cfg)
		if par > prev {
			t.Fatalf("P=%d: simulated time %d grew from %d", p, par, prev)
		}
		prev = par
	}
}

func TestModelSpeedupBounds(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		s := bench.ModelSpeedup(4000, 4000, bench.ModelConfig{K: 16, BaseCells: 65536, Workers: p})
		if s <= 1 || s > float64(p) {
			t.Fatalf("P=%d: model speedup %.2f outside (1, P]", p, s)
		}
	}
	// Larger problems are at least as efficient.
	s1 := bench.ModelSpeedup(1000, 1000, bench.ModelConfig{K: 16, BaseCells: 4096, Workers: 8})
	s2 := bench.ModelSpeedup(8000, 8000, bench.ModelConfig{K: 16, BaseCells: 4096, Workers: 8})
	if s2 < s1-0.05 {
		t.Fatalf("efficiency not growing with size: %.2f -> %.2f", s1, s2)
	}
}

func TestTheoremAlpha(t *testing.T) {
	// alpha = (1 + (P^2-P)/(RC))/P.
	if got := bench.TheoremAlpha(1, 10, 10); got != 1.0 {
		t.Fatalf("P=1 alpha = %v", got)
	}
	got := bench.TheoremAlpha(8, 16, 16)
	want := (1 + float64(56)/256.0) / 8
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("alpha = %v, want %v", got, want)
	}
	// alpha decreases as the tile grid grows.
	if bench.TheoremAlpha(8, 32, 32) >= bench.TheoremAlpha(8, 8, 8) {
		t.Fatal("alpha must fall with R*C")
	}
	// Degenerate worker count clamps.
	if bench.TheoremAlpha(0, 4, 4) != 1.0 {
		t.Fatal("P<1 must clamp to 1")
	}
}

// TestModelMatchesTheorem4: the simulated per-fill parallel time never beats
// the work/P lower bound and stays under the Theorem-4 upper bound.
func TestModelMatchesTheorem4(t *testing.T) {
	const m, n, p = 4000, 4000, 8
	cfg := bench.ModelConfig{K: 16, BaseCells: 4096, Workers: p}
	par, work := bench.SimulateFastLSA(m, n, cfg)
	if par < work/int64(p) {
		t.Fatalf("parallel time %d below work/P = %d", par, work/int64(p))
	}
	// Theorem 4 upper bound with alpha over the top-level grid, applied to
	// the total work (each level's fill satisfies the same bound; base-case
	// ramp adds slack, so allow 25%).
	alpha := bench.TheoremAlpha(p, 16, 16)
	bound := float64(work) * alpha * 1.25
	if float64(par) > bound {
		t.Fatalf("parallel time %d exceeds Theorem-4 envelope %.0f", par, bound)
	}
}
