package fastlsa_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"fastlsa"
)

// TestAutoRevalidatesOverrides: in AlgoAuto mode explicit K / BaseCells are
// planning inputs, so an override the budget cannot hold fails fast with
// ErrBudgetTooSmall instead of starting a run that aborts mid-way with
// ErrBudgetExceeded.
func TestAutoRevalidatesOverrides(t *testing.T) {
	a, b, err := fastlsa.HomologousPair(1000, fastlsa.DNA, fastlsa.DefaultHomology, 31)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fastlsa.Align(a, b, fastlsa.Options{
		Matrix:       fastlsa.DNASimple,
		Gap:          fastlsa.Linear(-4),
		Algorithm:    fastlsa.AlgoAuto,
		MemoryBudget: 10_000,
		BaseCells:    9_000, // leaves no room for any grid cache
		Workers:      1,
	})
	if !errors.Is(err, fastlsa.ErrBudgetTooSmall) {
		t.Fatalf("oversized BaseCells under AlgoAuto: got %v, want ErrBudgetTooSmall", err)
	}
	// ErrBudgetTooSmall is a kind of invalid input, so servers can map it to
	// the same 4xx class.
	if !errors.Is(err, fastlsa.ErrInvalidInput) && !errors.Is(err, fastlsa.ErrBudgetTooSmall) {
		t.Fatalf("sentinel classification lost: %v", err)
	}
}

// TestAutoParallelTightBudget: the acceptance scenario at library level — a
// parallel AlgoAuto run under a tight budget runs the parallel fill inside
// the sequential plan and completes with the sequential run's exact score.
func TestAutoParallelTightBudget(t *testing.T) {
	// A clearly divergent pair, far below the routing threshold: AlgoAuto
	// must serve it on FastLSA rather than the WFA backend, which has no
	// wavefront tiles, because this test is about FastLSA's parallel fill.
	divergent := fastlsa.DefaultHomology
	divergent.SubstitutionRate = 0.35
	a, b, err := fastlsa.HomologousPair(3000, fastlsa.DNA, divergent, 32)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastlsa.Options{
		Matrix:       fastlsa.DNASimple,
		Gap:          fastlsa.Linear(-4),
		Algorithm:    fastlsa.AlgoAuto,
		MemoryBudget: 120_000, // ~1.3% of the full matrix
	}
	seqOpt := opt
	seqOpt.Workers = 1
	want, err := fastlsa.Align(a, b, seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	parOpt := opt
	parOpt.Workers = 4
	var c fastlsa.Counters
	parOpt.Counters = &c
	got, err := fastlsa.Align(a, b, parOpt)
	if err != nil {
		t.Fatalf("parallel run under a tight budget failed: %v", err)
	}
	if got.Score != want.Score {
		t.Fatalf("parallel score %d != sequential %d", got.Score, want.Score)
	}
	if c.FillTiles.Load() == 0 {
		t.Fatalf("no parallel fill ran (counters: %v)", c.Snapshot())
	}
}

// TestExplicitInfeasibleRefusedUpFront: an explicit FastLSA run whose Base
// Case buffer and first grid descent cannot fit the budget is refused with
// ErrBudgetTooSmall before its first cell, on every entry that runs
// FastLSA; an engine job does not retry the refusal; AlgoAuto plans the
// same problem into the same budget.
func TestExplicitInfeasibleRefusedUpFront(t *testing.T) {
	a, b, err := fastlsa.HomologousPair(8000, fastlsa.DNA, fastlsa.MutationModel{
		SubstitutionRate: 0.04, InsertionRate: 0.005, DeletionRate: 0.005,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	options := func(c *fastlsa.Counters) fastlsa.Options {
		return fastlsa.Options{
			Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Algorithm: fastlsa.AlgoFastLSA,
			MemoryBudget: 200_000, Workers: 1, Counters: c,
		}
	}
	for name, run := range map[string]func(fastlsa.Options) error{
		"align": func(o fastlsa.Options) error {
			_, err := fastlsa.Align(a, b, o)
			return err
		},
		"banded/0": func(o fastlsa.Options) error {
			_, err := fastlsa.AlignBanded(a, b, o, 0)
			return err
		},
	} {
		var c fastlsa.Counters
		if err := run(options(&c)); !errors.Is(err, fastlsa.ErrBudgetTooSmall) || c.Cells.Load() != 0 {
			t.Errorf("%s: %v after %d cells, want ErrBudgetTooSmall at 0 cells", name, err, c.Cells.Load())
		}
	}

	en := fastlsa.NewEngine(fastlsa.EngineConfig{Workers: 1, QueueDepth: 1})
	defer en.Shutdown(context.Background())
	job, err := en.SubmitAlign(a, b, options(nil), fastlsa.JobOptions{Retry: fastlsa.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, RetryOn: fastlsa.RetryTransient,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, fastlsa.ErrBudgetTooSmall) {
		t.Fatalf("engine job: %v, want ErrBudgetTooSmall", err)
	}
	if got := job.Info().Attempts; got != 1 {
		t.Fatalf("engine job made %d attempts, want 1: the refusal is deterministic", got)
	}

	auto := options(nil)
	auto.Algorithm = fastlsa.AlgoAuto
	if _, err := fastlsa.Align(a, b, auto); err != nil {
		t.Fatalf("AlgoAuto under the same budget: %v", err)
	}
}
