package theory_test

import (
	"math"
	"testing"
	"testing/quick"

	"fastlsa/internal/bench"
	"fastlsa/internal/core"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/theory"
)

// TestSequentialRecurrenceUnderBound: the exact recurrence never exceeds
// Theorem 2's closed form (with the +1-per-dimension base-case slack).
func TestSequentialRecurrenceUnderBound(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8, 16} {
		for _, n := range []int{100, 1000, 10000, 100000} {
			cells, err := theory.SequentialCells(n, n, k, 4096)
			if err != nil {
				t.Fatal(err)
			}
			bound := theory.SequentialBound(n, n, k) * 1.10
			if float64(cells) > bound {
				t.Fatalf("k=%d n=%d: recurrence %d exceeds bound %.0f", k, n, cells, bound)
			}
			if cells < int64(n)*int64(n) {
				t.Fatalf("k=%d n=%d: recurrence %d below m*n", k, n, cells)
			}
		}
	}
}

// TestRecurrenceDominatesImplementation: the instrumented implementation
// never computes more cells than the worst-case recurrence predicts.
func TestRecurrenceDominatesImplementation(t *testing.T) {
	for _, tc := range []struct{ n, k, bm int }{
		{500, 4, 256}, {900, 8, 1024}, {1200, 2, 64},
	} {
		a, b, err := seq.HomologousPair(tc.n, seq.DNA, seq.DefaultHomology, int64(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		var c stats.Counters
		if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{
			K: tc.k, BaseCells: tc.bm, Workers: 1, Counters: &c,
		}); err != nil {
			t.Fatal(err)
		}
		// The recurrence is evaluated at the actual (possibly unequal)
		// lengths; take the max dimension for a safe over-approximation.
		m := a.Len()
		n := b.Len()
		pred, err := theory.SequentialCells(m, n, tc.k, tc.bm)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Cells.Load(); got > pred {
			t.Fatalf("n=%d k=%d bm=%d: measured %d exceeds recurrence %d", tc.n, tc.k, tc.bm, got, pred)
		}
	}
}

func TestAlphaMatchesBenchHelper(t *testing.T) {
	for _, tc := range []struct{ p, r, c int }{{1, 4, 4}, {8, 16, 16}, {8, 12, 18}} {
		if got, want := theory.Alpha(tc.p, tc.r, tc.c), bench.TheoremAlpha(tc.p, tc.r, tc.c); math.Abs(got-want) > 1e-12 {
			t.Fatalf("alpha mismatch for %+v: %v vs %v", tc, got, want)
		}
	}
}

// TestParallelRecurrenceUnderBound: Equation 28's exact evaluation stays
// under Theorem 4's closed form.
func TestParallelRecurrenceUnderBound(t *testing.T) {
	for _, tc := range []struct{ n, k, p, u, v int }{
		{2000, 8, 8, 2, 2}, {5000, 6, 8, 2, 3}, {10000, 8, 4, 2, 2}, {4000, 4, 16, 4, 4},
	} {
		wt, err := theory.ParallelTime(tc.n, tc.n, tc.k, tc.p, tc.u, tc.v, 4096)
		if err != nil {
			t.Fatal(err)
		}
		bound := theory.ParallelBound(tc.n, tc.n, tc.k, tc.p, tc.u, tc.v) * 1.10
		if wt > bound {
			t.Fatalf("%+v: WT %.0f exceeds bound %.0f", tc, wt, bound)
		}
		// And it cannot beat perfect speedup on the mandatory m*n work.
		if wt < float64(tc.n)*float64(tc.n)/float64(tc.p) {
			t.Fatalf("%+v: WT %.0f below mn/P", tc, wt)
		}
	}
}

// TestTheoryMatchesSimulator: the analytic model speedup and the
// list-scheduling simulation agree within a modest tolerance (the theory is
// an upper-bound-style approximation of the same schedule).
func TestTheoryMatchesSimulator(t *testing.T) {
	// The simulator replays the implementation's R = C = k tiling, which is
	// the analysis at u = v = 1.
	const n, k, p, bm = 4000, 16, 8, 65536
	analytic, err := theory.ModelSpeedup(n, n, k, p, 1, 1, bm)
	if err != nil {
		t.Fatal(err)
	}
	simulated := bench.ModelSpeedup(n, n, bench.ModelConfig{K: k, BaseCells: bm, Workers: p})
	if math.Abs(analytic-simulated)/simulated > 0.25 {
		t.Fatalf("analytic %.2f vs simulated %.2f diverge by more than 25%%", analytic, simulated)
	}
	// Both show the near-linear-at-P=8 shape.
	if analytic < 5.5 || simulated < 5.5 {
		t.Fatalf("speedups too low: analytic %.2f, simulated %.2f", analytic, simulated)
	}
}

// TestGridMemoryLinear: the predicted grid footprint is O(k*(m+n)) with the
// geometric tail, i.e. far below quadratic, and the implementation's peak
// stays under it.
func TestGridMemoryLinear(t *testing.T) {
	gm, err := theory.GridMemory(4000, 4000, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if gm > int64(8*(4000+4000+2))*2+4096 {
		t.Fatalf("grid memory %d exceeds ~2*k*(m+n)", gm)
	}
	a, b, err := seq.HomologousPair(1500, seq.DNA, seq.DefaultHomology, 3)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := theory.GridMemory(a.Len(), b.Len(), 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := memory.NewBudget(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{
		K: 8, BaseCells: 4096, Workers: 1, Budget: budget,
	}); err != nil {
		t.Fatal(err)
	}
	if budget.Peak() > pred*2 {
		t.Fatalf("implementation peak %d far above predicted %d", budget.Peak(), pred)
	}
}

// TestValidation rejects malformed parameters.
func TestValidation(t *testing.T) {
	if _, err := theory.SequentialCells(10, 10, 1, 64); err == nil {
		t.Fatal("k=1 must fail")
	}
	if _, err := theory.SequentialCells(-1, 10, 2, 64); err == nil {
		t.Fatal("negative dims must fail")
	}
	if _, err := theory.SequentialCells(10, 10, 2, 1); err == nil {
		t.Fatal("tiny bm must fail")
	}
	if _, err := theory.ParallelTime(10, 10, 2, 0, 1, 1, 64); err == nil {
		t.Fatal("P=0 must fail")
	}
	if _, err := theory.ModelSpeedup(100, 100, 4, 4, 1, 1, 64); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInvariants: for arbitrary parameters, (1) the sequential
// recurrence stays within [m*n, Theorem-2 bound + slack]; (2) the parallel
// time never implies super-linear speedup (WT >= work/P). Note that WT is
// NOT monotone in P for small tile grids — the paper's own point that the
// ramp phases dominate when R*C is small relative to P^2 — so monotonicity
// is deliberately not asserted.
func TestQuickInvariants(t *testing.T) {
	f := func(n16 uint16, k8, p8 uint8) bool {
		n := int(n16%4000) + 100
		k := int(k8%14) + 2
		p := int(p8%15) + 1
		cells, err := theory.SequentialCells(n, n, k, 1024)
		if err != nil {
			return false
		}
		if cells < int64(n)*int64(n) || float64(cells) > theory.SequentialBound(n, n, k)*1.15 {
			return false
		}
		wt, err := theory.ParallelTime(n, n, k, p, 2, 2, 1024)
		if err != nil {
			return false
		}
		return wt >= float64(cells)/float64(p)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestOverParallelisationHurts demonstrates the non-monotonicity explicitly:
// with a tiny tile grid, pushing P far past R*C raises alpha and the
// analysis' parallel time — the trade-off the paper's §5 tuning discussion
// warns about.
func TestOverParallelisationHurts(t *testing.T) {
	// R = C = k*u = 4: alpha grows once P^2 >> 16.
	small, err := theory.ParallelTime(2000, 2000, 2, 2, 2, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	big, err := theory.ParallelTime(2000, 2000, 2, 15, 2, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if big < small {
		// alpha(15, 4x4) = (1+210/16)/15 ~ 0.94 vs alpha(2) = (1+2/16)/2 ~ 0.56
		t.Fatalf("expected over-parallelisation to hurt: P=15 time %.0f < P=2 time %.0f", big, small)
	}
}
