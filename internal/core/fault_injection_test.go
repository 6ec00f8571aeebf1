package core_test

import (
	"errors"
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/fault"
	"fastlsa/internal/fm"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
	"fastlsa/internal/wavefront"
)

// parallelOpts returns options that force the §5 parallel wavefront paths on
// a modest problem, with a fresh budget to audit reservation hygiene.
func parallelOpts(t *testing.T, entries int64) core.Options {
	t.Helper()
	budget, err := memory.NewBudget(entries)
	if err != nil {
		t.Fatal(err)
	}
	return core.Options{
		K: 4, BaseCells: 4096, Budget: budget,
		Workers: 4, ParallelFillCells: 1,
	}
}

// TestInjectedTilePanicIsIsolated is the tentpole regression: a panic
// injected inside a parallel wavefront tile must fail only that run — the
// error surfaces as a wrapped wavefront.ErrTilePanic, the lane scheduler
// drains instead of wedging, every budget reservation is released, and the
// very next run on the same budget succeeds with the exact FM score.
func TestInjectedTilePanicIsIsolated(t *testing.T) {
	a, b := testutil.HomologousPair(1500, seq.DNA, 7)
	gap := scoring.Linear(-4)
	opt := parallelOpts(t, 1<<22)

	if err := fault.Arm("core.fillTile:panic", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	_, err := core.Align(a, b, scoring.DNASimple, gap, opt)
	if err == nil {
		t.Fatal("armed tile panic did not fail the run")
	}
	if !errors.Is(err, wavefront.ErrTilePanic) {
		t.Fatalf("error %v does not wrap wavefront.ErrTilePanic", err)
	}
	var pe *wavefront.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *wavefront.PanicError", err)
	}
	if !fault.IsInjectedPanic(pe.Value) {
		t.Fatalf("recovered value %v is not the injected panic", pe.Value)
	}
	if used := opt.Budget.Used(); used != 0 {
		t.Fatalf("budget leak after tile panic: %d entries still reserved", used)
	}

	// The failure is confined to that run: disarmed, the same solver state
	// (budget included) produces the exact full-matrix score.
	fault.Disarm()
	got, err := core.Align(a, b, scoring.DNASimple, gap, opt)
	if err != nil {
		t.Fatalf("post-panic run failed: %v", err)
	}
	want, err := fm.Align(a, b, scoring.DNASimple, gap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatalf("post-panic score %d != FM %d", got.Score, want.Score)
	}
	if used := opt.Budget.Used(); used != 0 {
		t.Fatalf("budget leak after clean run: %d", used)
	}
}

// TestInjectedTileErrorReleasesBudget: the error (non-panic) flavour of the
// same regression.
func TestInjectedTileErrorReleasesBudget(t *testing.T) {
	a, b := testutil.HomologousPair(1500, seq.DNA, 11)
	opt := parallelOpts(t, 1<<22)

	if err := fault.Arm("core.fillTile:error", 3); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	_, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), opt)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v does not wrap fault.ErrInjected", err)
	}
	if used := opt.Budget.Used(); used != 0 {
		t.Fatalf("budget leak after injected tile error: %d", used)
	}
}

// TestInjectedBaseCaseError: the sequential recursion path fails cleanly too.
func TestInjectedBaseCaseError(t *testing.T) {
	a, b := testutil.HomologousPair(600, seq.DNA, 13)
	opt := parallelOpts(t, 1<<22)
	opt.Workers = 1

	if err := fault.Arm("core.baseCase:error", 5); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	_, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), opt)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v does not wrap fault.ErrInjected", err)
	}
	if used := opt.Budget.Used(); used != 0 {
		t.Fatalf("budget leak after injected base-case error: %d", used)
	}
}

// TestChaosParallelFillUnderDelays arms tile delays (the chaos spec's
// benign flavour) and demands path-exact scores: injected latency must
// reorder nothing.
func TestChaosParallelFillUnderDelays(t *testing.T) {
	if err := fault.Arm("core.fillTile:delay:200us:0.3", 9); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	gap := scoring.Linear(-3)
	for _, n := range []int{400, 900} {
		a, b := testutil.HomologousPair(n, seq.DNA, int64(n))
		opt := parallelOpts(t, 1<<22)
		got, err := core.Align(a, b, scoring.DNASimple, gap, opt)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := fm.Align(a, b, scoring.DNASimple, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("n=%d: delayed parallel score %d != FM %d", n, got.Score, want.Score)
		}
		if used := opt.Budget.Used(); used != 0 {
			t.Fatalf("n=%d: budget leak under delays: %d", n, used)
		}
	}
}

// TestDisarmedFillSitesZeroAlloc is the acceptance guard for the hot path:
// the injection points compiled into fillTile/baseCase must be free when
// disarmed — zero allocations per hit (the obs disabled-trace discipline).
func TestDisarmedFillSitesZeroAlloc(t *testing.T) {
	fault.Disarm()
	for _, name := range []string{"core.fillTile", "core.baseCase"} {
		site := fault.Lookup(name)
		if site == nil {
			t.Fatalf("site %s is not registered", name)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := site.Hit(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("disarmed %s allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}
