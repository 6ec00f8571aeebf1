package fastlsa_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fastlsa"
	"fastlsa/internal/core"
	"fastlsa/internal/fault"
	"fastlsa/internal/fm"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// TestBatchSurvivesTileFillPanics is the resilience acceptance scenario: with
// a 1% panic armed on the parallel tile-fill site, a 100-unit alignment batch
// submitted with a 3-attempt retry policy completes with zero failed units —
// every injected panic is isolated to its attempt, classified transient, and
// retried — and every unit still produces the exact full-matrix score.
func TestBatchSurvivesTileFillPanics(t *testing.T) {
	if err := fault.Arm("core.fillTile:panic:0.01", 11); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	// Size each unit so an attempt crosses the injection point a handful of
	// times: a 200x200 problem with K=2 runs one parallel grid fill of 3
	// tiles (2x2 blocks minus the skipped bottom-right one), while
	// ParallelFillCells keeps every recursive subproblem on the sequential
	// paths.
	opt := core.Options{K: 2, BaseCells: 4096, Workers: 2, ParallelFillCells: 20000}
	gap := scoring.Linear(-4)

	const units = 100
	type pair struct{ a, b *seq.Sequence }
	pairs := make([]pair, units)
	want := make([]int64, units)
	for i := range pairs {
		a, b := testutil.HomologousPair(200, seq.DNA, int64(i+1))
		pairs[i] = pair{a, b}
		ref, err := fm.Align(a, b, scoring.DNASimple, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref.Score
	}

	en := fastlsa.NewEngine(fastlsa.EngineConfig{Workers: 4, QueueDepth: 2 * units})
	defer en.Shutdown(context.Background())

	tasks := make([]func(ctx context.Context) (any, error), units)
	for i := range tasks {
		p := pairs[i]
		tasks[i] = func(ctx context.Context) (any, error) {
			res, err := core.Align(p.a, p.b, scoring.DNASimple, gap, opt)
			if err != nil {
				return nil, err
			}
			return res.Score, nil
		}
	}
	b, err := en.SubmitBatchFunc("resilience-align", tasks, fastlsa.JobOptions{
		Retry: fastlsa.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    4 * time.Millisecond,
			RetryOn:     fastlsa.RetryTransient,
		},
	})
	if err != nil {
		t.Fatalf("SubmitBatchFunc: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := b.Wait(ctx)
	if err != nil {
		t.Fatalf("batch Wait: %v", err)
	}

	for _, r := range results {
		if r.Err != nil {
			t.Errorf("unit %d failed despite retry: %v", r.Index, r.Err)
			continue
		}
		if got := r.Result.(int64); got != want[r.Index] {
			t.Errorf("unit %d score %d != full-matrix %d", r.Index, got, want[r.Index])
		}
	}
	if retries := en.Stats().Retries; retries < 1 {
		t.Fatalf("retries = %d; the armed fault never struck — the scenario is vacuous", retries)
	} else {
		t.Logf("completed %d units with %d retried attempts", units, retries)
	}
}

// TestRetryTransientClassification pins the public classifier's contract:
// panics, injected faults and budget races retry; caller mistakes and
// cancellations never do.
func TestRetryTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("wrapped: %w", fastlsa.ErrJobPanic), true},
		{fmt.Errorf("wrapped: %w", fault.ErrInjected), true},
		{fmt.Errorf("wrapped: %w", fastlsa.ErrBudgetExceeded), true},
		{errors.New("some transient I/O flake"), true},
		{fmt.Errorf("wrapped: %w", fastlsa.ErrInvalidInput), false},
		{fmt.Errorf("wrapped: %w", fastlsa.ErrBudgetTooSmall), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if got := fastlsa.RetryTransient(c.err); got != c.want {
			t.Errorf("RetryTransient(%v) = %t, want %t", c.err, got, c.want)
		}
	}
}
