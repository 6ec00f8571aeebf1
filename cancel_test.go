package fastlsa_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fastlsa"
)

// cancelDelay is how long each run computes before the context is cancelled;
// promptBound is how quickly it must then return. The inputs below are sized
// so an uncancelled run takes far longer than cancelDelay, proving the
// cancellation landed mid-fill and the abandoned work stopped burning CPU.
const (
	cancelDelay = 15 * time.Millisecond
	promptBound = 3 * time.Second
)

// TestCancellationPropagates cancels every public entry point mid-fill and
// requires a prompt return with an error wrapping context.Canceled.
func TestCancellationPropagates(t *testing.T) {
	n := 12000
	a := fastlsa.RandomSequence("a", n, fastlsa.DNA, 1)
	b := fastlsa.RandomSequence("b", n, fastlsa.DNA, 2)

	db := make([]*fastlsa.Sequence, 64)
	for i := range db {
		db[i] = fastlsa.RandomSequence("d", 3000, fastlsa.DNA, int64(100+i))
	}
	query := fastlsa.RandomSequence("q", 3000, fastlsa.DNA, 99)

	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"align-global", func(ctx context.Context) error {
			_, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Workers: 1, Context: ctx})
			return err
		}},
		{"align-global-parallel", func(ctx context.Context) error {
			_, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Workers: 4, Context: ctx})
			return err
		}},
		{"align-affine", func(ctx context.Context) error {
			_, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Affine(-11, -1), Workers: 1, Context: ctx})
			return err
		}},
		{"align-local", func(ctx context.Context) error {
			_, err := fastlsa.AlignLocal(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Workers: 1, Context: ctx})
			return err
		}},
		{"search", func(ctx context.Context) error {
			_, err := fastlsa.Search(query, db, fastlsa.SearchOptions{Matrix: fastlsa.DNASimple, Workers: 1, Context: ctx})
			return err
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() { errc <- tc.run(ctx) }()
			time.Sleep(cancelDelay)
			start := time.Now()
			cancel()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("run finished despite cancellation (input too small to be cancelled mid-fill?)")
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error %v does not wrap context.Canceled", err)
				}
				if waited := time.Since(start); waited > promptBound {
					t.Fatalf("took %v after cancel, want < %v", waited, promptBound)
				}
			case <-time.After(promptBound):
				t.Fatalf("still running %v after cancel", promptBound)
			}
		})
	}
}

// TestPreCancelledContext rejects runs whose context is already dead without
// doing any work.
func TestPreCancelledContext(t *testing.T) {
	a := fastlsa.RandomSequence("a", 100, fastlsa.DNA, 1)
	b := fastlsa.RandomSequence("b", 100, fastlsa.DNA, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Align: %v does not wrap context.Canceled", err)
	}
	if _, err := fastlsa.Search(a, []*fastlsa.Sequence{b}, fastlsa.SearchOptions{Matrix: fastlsa.DNASimple, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search: %v does not wrap context.Canceled", err)
	}
}

// TestDeadlineExceededPropagates ensures deadline expiry surfaces the same
// way cancellation does.
func TestDeadlineExceededPropagates(t *testing.T) {
	n := 12000
	a := fastlsa.RandomSequence("a", n, fastlsa.DNA, 3)
	b := fastlsa.RandomSequence("b", n, fastlsa.DNA, 4)
	ctx, cancel := context.WithTimeout(context.Background(), cancelDelay)
	defer cancel()
	_, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Workers: 1, Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestSharedCountersConcurrentRuns reuses ONE Options value — and thus one
// *Counters — across concurrent runs with different contexts, the shape every
// engine batch produces. The cancellation signal must stay per-run: cancelling
// half the runs mid-fill must not disturb their siblings, the shared Counters
// must not be written unsynchronized (run under -race), and it must still
// accumulate every run's work.
func TestSharedCountersConcurrentRuns(t *testing.T) {
	// 16000, not 8000: at 8000 an uncancelled run under parallel package
	// load took only 70-110 ms with the packed linear sweep, and one
	// cancelled run finished before its cancel landed.
	n := 16000
	a := fastlsa.RandomSequence("a", n, fastlsa.DNA, 7)
	b := fastlsa.RandomSequence("b", n, fastlsa.DNA, 8)
	var counters fastlsa.Counters
	opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Workers: 1, Counters: &counters}

	const runs = 6
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%2 == 1 {
				go func() {
					time.Sleep(cancelDelay)
					cancel()
				}()
			}
			o := opt // shared Counters pointer rides along
			o.Context = ctx
			_, errs[i] = fastlsa.Align(a, b, o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if i%2 == 1 {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled run %d: error %v does not wrap context.Canceled", i, err)
			}
		} else if err != nil {
			t.Errorf("run %d spuriously failed: %v (sibling's cancellation leaked?)", i, err)
		}
	}
	if counters.Cells.Load() == 0 {
		t.Fatal("shared counters collected no work from the runs")
	}
}

// TestBatchSharedOptions runs an engine batch whose units all share one
// Options (and one *Counters): every unit must succeed independently and the
// shared counters must aggregate the whole batch (run under -race).
func TestBatchSharedOptions(t *testing.T) {
	eng := fastlsa.NewEngine(fastlsa.EngineConfig{Workers: 4, QueueDepth: 16})
	defer eng.Shutdown(context.Background())

	pairs := make([]fastlsa.SequencePair, 6)
	for i := range pairs {
		pairs[i] = fastlsa.SequencePair{
			A: fastlsa.RandomSequence("a", 1500, fastlsa.DNA, int64(2*i)),
			B: fastlsa.RandomSequence("b", 1500, fastlsa.DNA, int64(2*i+1)),
		}
	}
	var counters fastlsa.Counters
	opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Workers: 1, Counters: &counters}
	batch, err := eng.SubmitAlignBatch(pairs, opt, fastlsa.JobOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	results, err := batch.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("unit %d failed: %v", i, r.Err)
		}
	}
	if counters.Cells.Load() == 0 {
		t.Fatal("shared counters collected no work from the batch")
	}
}

// TestEngineCancelStopsCPU exercises the same property through the Engine:
// a large alignment job cancelled mid-run returns promptly as Cancelled.
func TestEngineCancelStopsCPU(t *testing.T) {
	n := 12000
	a := fastlsa.RandomSequence("a", n, fastlsa.DNA, 5)
	b := fastlsa.RandomSequence("b", n, fastlsa.DNA, 6)

	eng := fastlsa.NewEngine(fastlsa.EngineConfig{Workers: 1})
	defer eng.Shutdown(context.Background())

	j, err := eng.SubmitAlign(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Workers: 1}, fastlsa.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(cancelDelay)
	start := time.Now()
	j.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), promptBound)
	defer cancel()
	_, werr := j.Wait(ctx)
	if werr == nil {
		t.Fatal("job finished despite cancellation")
	}
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", werr)
	}
	if waited := time.Since(start); waited > promptBound {
		t.Fatalf("took %v after cancel, want < %v", waited, promptBound)
	}
	if st := j.Info().State; st != fastlsa.JobCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
}
