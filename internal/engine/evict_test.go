package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

// refJob and refEvict are the registry-walking eviction the engine used
// before it kept running counts: count every finished job, drop the oldest
// beyond maxRetained, then walk back from the newest and strip the results of
// all but the newest maxResults finished jobs.
type refJob struct {
	terminal, hasResult bool
}

func refEvict(order []string, jobs map[string]*refJob, maxRetained, maxResults int) []string {
	finished := 0
	for _, id := range order {
		if jobs[id].terminal {
			finished++
		}
	}
	if finished > maxRetained {
		keep := order[:0]
		for _, id := range order {
			if jobs[id].terminal && finished > maxRetained {
				delete(jobs, id)
				finished--
				continue
			}
			keep = append(keep, id)
		}
		order = keep
	}
	if finished <= maxResults {
		return order
	}
	withResult := 0
	for i := len(order) - 1; i >= 0; i-- {
		j := jobs[order[i]]
		if !j.terminal {
			continue
		}
		if withResult < maxResults {
			withResult++
			continue
		}
		j.hasResult = false
	}
	return order
}

// TestEvictMatchesRegistryWalk drives random submit/finish sequences through
// evictLocked and the reference walk: after every step both must retain the
// same jobs, in the same order, with results on the same ones.
func TestEvictMatchesRegistryWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 300; trial++ {
		maxRetained := 1 + rng.IntN(12)
		maxResults := 1 + rng.IntN(14)
		e := &Engine{cfg: Config{MaxRetained: maxRetained, MaxRetainedResults: maxResults}, jobs: map[string]*Job{}}
		var refOrder []string
		ref := map[string]*refJob{}
		var live []*Job
		for step := 0; step < 200; step++ {
			if len(live) == 0 || rng.IntN(5) < 2 {
				e.nextSeq++
				j := &Job{id: fmt.Sprintf("job-%d", e.nextSeq), seq: e.nextSeq, state: Queued}
				e.jobs[j.id] = j
				e.order = append(e.order, j)
				live = append(live, j)
				refOrder = append(refOrder, j.id)
				ref[j.id] = &refJob{}
				continue
			}
			// Finish a random live job: mostly old ones, so finishes run
			// both in and out of submission order.
			k := rng.IntN(len(live))
			if rng.IntN(2) == 0 {
				k = rng.IntN(min(len(live), 3))
			}
			j := live[k]
			live = append(live[:k], live[k+1:]...)
			j.state = Succeeded
			j.result = j.id
			e.evictLocked(j)
			ref[j.id].terminal, ref[j.id].hasResult = true, true
			refOrder = refEvict(refOrder, ref, maxRetained, maxResults)

			if len(e.order) != len(refOrder) || len(e.jobs) != len(ref) {
				t.Fatalf("trial %d step %d: retained %d (registry %d), reference %d (%d)",
					trial, step, len(e.order), len(e.jobs), len(refOrder), len(ref))
			}
			for i, got := range e.order {
				want := ref[refOrder[i]]
				if got.id != refOrder[i] || e.jobs[got.id] != got || (got.result != nil) != want.hasResult {
					t.Fatalf("trial %d step %d (retain %d, results %d): position %d is %s (result %v), reference %s (result %v)",
						trial, step, maxRetained, maxResults, i, got.id, got.result != nil, refOrder[i], want.hasResult)
				}
			}
		}
	}
}

// TestFinishedJobReleasesTask pins that a finished job no longer references
// its task: a value only the task closure captures must become unreachable
// once the job is terminal, though the job itself stays registered.
func TestFinishedJobReleasesTask(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4})
	defer shutdownNow(t, e)

	freed := make(chan struct{})
	j := func() *Job {
		input := &[1 << 16]byte{1}
		runtime.SetFinalizer(input, func(*[1 << 16]byte) { close(freed) })
		j, err := e.Submit(Submission{Kind: "test", Task: func(context.Context) (any, error) {
			return int(input[0]), nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}()
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Job(j.ID()); err != nil {
		t.Fatalf("finished job not retained: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("the finished job still pins the value its task captured")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
