// Package engine is the job-scheduling subsystem of the alignment service:
// a bounded submission queue with admission control, a fixed pool of workers
// sized against GOMAXPROCS, per-job priorities and deadlines, batch
// submissions that fan out over many pairs with streaming completion, and
// first-class cancellation wired into the DP kernels through the run's
// context (see internal/stats).
//
// The engine deliberately knows nothing about alignment: a job is any
// Task func(ctx) (any, error). The public fastlsa.Engine facade and the
// server's async job API are thin layers over this package.
package engine

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"fastlsa/internal/fault"
	"fastlsa/internal/obs"
)

// Task is the unit of work a job runs: it must honour ctx — the engine
// cancels it on Job.Cancel, on deadline expiry, and on Shutdown.
type Task func(ctx context.Context) (any, error)

// State is a job's lifecycle stage.
type State int

const (
	// Queued: admitted, waiting for a worker.
	Queued State = iota
	// Running: executing on a worker.
	Running
	// Succeeded: finished with a nil error.
	Succeeded
	// Failed: finished with a non-cancellation error.
	Failed
	// Cancelled: cancelled (before or during execution) or deadline-expired.
	Cancelled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Succeeded || s == Failed || s == Cancelled }

var (
	// ErrQueueFull rejects a submission when the queue is at capacity
	// (admission control: the caller should shed load or retry later).
	ErrQueueFull = errors.New("engine: submission queue full")
	// ErrClosed rejects submissions after Shutdown has begun.
	ErrClosed = errors.New("engine: engine is shut down")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("engine: no such job")
	// ErrJobPanic is the sentinel wrapped by the failure error of a job whose
	// task panicked. Panics are isolated to the job (the pool survives) and
	// classified as transient by the default retry policy.
	ErrJobPanic = errors.New("engine: job panicked")
	// ErrDuplicateID rejects a submission whose explicit Submission.ID is
	// already registered (journal recovery resubmits jobs under their
	// original ids; colliding with a live one is a caller bug).
	ErrDuplicateID = errors.New("engine: job id already in use")
)

// siteWorker is the fault-injection point struck just before a worker runs a
// task: armed (see internal/fault) it rehearses worker-side panics, delays
// and transient errors without touching the task itself.
var siteWorker = fault.NewSite("engine.worker")

// RetryPolicy makes a job's transient failures survivable: a failed attempt
// is re-queued (after an exponential backoff with jitter) instead of
// finishing the job, until an attempt succeeds, MaxAttempts is exhausted, or
// the failure is classified non-retryable. Cancellation and deadline expiry
// are never retried — a cancelled job is a decision, not a fault.
type RetryPolicy struct {
	// MaxAttempts caps total executions of the task, first attempt included
	// (<= 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, with full jitter in [delay/2, delay) (0 selects 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (0 selects 2s).
	MaxDelay time.Duration
	// RetryOn classifies failures: return true to retry err. Nil selects
	// Retryable (retry everything except cancellations). Callers with typed
	// permanent errors — invalid input, a budget below the algorithm's floor —
	// should exclude them here; panics (ErrJobPanic) and injected faults
	// (fault.ErrInjected) are worth retrying.
	RetryOn func(error) bool
}

// enabled reports whether the policy can ever retry.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// shouldRetry classifies err for the given completed attempt count.
func (p RetryPolicy) shouldRetry(attempts int, err error) bool {
	if !p.enabled() || attempts >= p.MaxAttempts || err == nil || isCancellation(err) {
		return false
	}
	if p.RetryOn != nil {
		return p.RetryOn(err)
	}
	return Retryable(err)
}

// backoff returns the delay before retry number retries (1-based):
// exponential growth from BaseDelay, capped at MaxDelay, with full jitter in
// [d/2, d) so synchronized failures do not retry in lockstep.
func (p RetryPolicy) backoff(retries int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	for i := 1; i < retries && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// Retryable is the default retry classification: cancellations and deadline
// expiries never retry; every other failure — panics (ErrJobPanic), injected
// faults, transient resource races — does. Supply RetryPolicy.RetryOn to
// also exclude errors known to be deterministic.
func Retryable(err error) bool { return err != nil && !isCancellation(err) }

// Config tunes an Engine. The zero value is usable: GOMAXPROCS workers, a
// queue of 4x that, and retention of the last 256 finished jobs.
type Config struct {
	// Workers is the fixed worker-pool size (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many jobs may wait for a worker; submissions
	// beyond it fail with ErrQueueFull (<= 0 selects 4*Workers).
	QueueDepth int
	// MaxRetained bounds how many finished jobs stay queryable; the oldest
	// are evicted first (<= 0 selects DefaultMaxRetained).
	MaxRetained int
	// MaxRetainedResults bounds how many of the retained finished jobs keep
	// their result payload; older ones stay queryable (state, timestamps,
	// error) but their result is dropped, so a long-lived server does not pin
	// hundreds of full alignment responses in memory (<= 0 selects 64; set
	// >= MaxRetained to keep every retained result).
	MaxRetainedResults int
	// ObserveQueueWait, when non-nil, receives the queue wait of every job
	// attempt the moment a worker picks it up (time since it last entered the
	// queue). Servers feed this to overload detectors — the breaker that sheds
	// synchronous requests when the p95 queue wait crosses a threshold — and
	// latency histograms. Called outside the engine lock; must be fast and
	// safe for concurrent use.
	ObserveQueueWait func(time.Duration)
	// OnJobEvent, when non-nil, receives every job lifecycle transition
	// (accepted, started, retried, finished — batch units included) on a
	// dedicated dispatcher goroutine, in the order the engine committed them.
	// This is the durability hook: the server appends the events to its
	// journal. The callback runs without engine locks but serially — a slow
	// sink delays later notifications, never the scheduler itself. Shutdown
	// flushes the queue before returning, so a finished job's event is always
	// delivered before the engine reports drained.
	OnJobEvent func(JobEvent)
}

// JobEvent lifecycle types delivered to Config.OnJobEvent.
const (
	// EventAccepted: the job entered the queue (Info.State == Queued).
	EventAccepted = "accepted"
	// EventStarted: a worker began an attempt (Info.Attempts is 1-based).
	EventStarted = "started"
	// EventRetried: an attempt failed retryably and the job re-queued.
	EventRetried = "retried"
	// EventFinished: the job reached a terminal state. Info.Abandoned marks
	// jobs cancelled by Shutdown's drain deadline rather than by a caller —
	// durability layers keep those non-terminal so the next boot retries them.
	EventFinished = "finished"
)

// JobEvent is one lifecycle notification: the transition type plus the job's
// Info snapshot taken at the moment the engine committed the transition.
type JobEvent struct {
	Type string
	Job  Info
}

// Submission describes one job.
type Submission struct {
	// Kind is a caller-defined label ("align", "search", ...), echoed in Info.
	Kind string
	// ID, when non-empty, is the job's id instead of an engine-generated one.
	// Journal recovery uses this to resubmit jobs under their pre-crash ids;
	// a collision with a registered job fails with ErrDuplicateID.
	ID string
	// Recovered marks a job re-enqueued from a durable journal after a
	// restart: it is echoed in Info (and job views), counted in
	// Stats.Recovered, and exempt from the queue-depth admission check —
	// recovery must never lose accepted work to its own burst. (The server
	// logs the matching EvRecover flight-recorder event, since only it knows
	// whether a checkpoint existed.)
	Recovered bool
	// PriorAttempts is the attempt count the journal had recorded before the
	// crash (recovery only); it offsets Info.Attempts so operators see the
	// job's whole history, not just the current boot's.
	PriorAttempts int
	// Accepted is the journalled time the client's submission was accepted
	// (recovery only): a recovered job reports it as Info.Submitted, so the
	// job's view keeps the client's accept time across the restart. Ignored
	// unless Recovered, and when zero.
	Accepted time.Time
	// Priority orders the queue: higher runs first; ties run in submission
	// order.
	Priority int
	// Timeout, when > 0, bounds the job's total lifetime (queue wait plus
	// execution); expiry cancels it with context.DeadlineExceeded.
	Timeout time.Duration
	// Parent, when non-nil, is the context the job's context derives from —
	// typically an HTTP request context, so a client disconnect cancels the
	// job. Nil selects context.Background().
	Parent context.Context
	// RequestID, when non-empty, ties the job to the originating request for
	// log correlation; it is echoed in Info and available to observability
	// layers.
	RequestID string
	// Retry, when enabled (MaxAttempts > 1), re-queues the job after
	// retryable failures instead of finishing it.
	Retry RetryPolicy
	// Recorder, when non-nil, is the job's flight recorder: the engine logs
	// admission, attempt starts (with queue wait), retries (with the failure
	// and backoff), and the terminal event into it, and layers below append
	// their own events through the same recorder. Retained with the job until
	// result eviction; exposed via Job.Events.
	Recorder *obs.Recorder
	// Task is the work to run (required).
	Task Task
}

// Info is a point-in-time public view of a job.
type Info struct {
	ID       string
	Kind     string
	Priority int
	State    State
	// Submitted, Started, Finished are lifecycle timestamps (zero when the
	// stage has not been reached).
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Err is the failure or cancellation reason ("" while unfinished or on
	// success).
	Err string
	// Batch is the owning batch id ("" for singleton jobs).
	Batch string
	// RequestID is the originating request's id ("" when none was supplied).
	RequestID string
	// Attempts counts executions started so far (0 while queued, 1 for a job
	// that never retried, up to RetryPolicy.MaxAttempts), including attempts
	// recorded before a crash for recovered jobs (Submission.PriorAttempts).
	Attempts int
	// Recovered marks a job re-enqueued from the durable journal after a
	// restart.
	Recovered bool
	// Abandoned marks a job cancelled by Shutdown's drain deadline: the
	// process gave up on it rather than a caller cancelling it. Durability
	// layers keep abandoned jobs non-terminal so the next boot retries them.
	Abandoned bool
}

// Job is a handle on a submitted job.
type Job struct {
	id        string
	kind      string
	priority  int
	batch     string
	requestID string
	seq       uint64
	task      Task
	retry     RetryPolicy
	recorder  *obs.Recorder

	ctx    context.Context
	cancel context.CancelFunc

	recovered bool
	prior     int // attempts journalled before the crash (recovered jobs)

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	attempts  int
	abandoned bool
	result    any
	err       error
	done      chan struct{}

	// index is the heap slot while queued (-1 once popped or abandoned).
	index int
	// queuedAt is when the job last entered the queue (submission or retry
	// re-queue); workers derive the per-attempt queue wait from it. Guarded
	// by the engine lock, like index.
	queuedAt time.Time
}

// ID returns the engine-assigned job id.
func (j *Job) ID() string { return j.id }

// Info snapshots the job's public view.
func (j *Job) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.infoLocked()
}

// View snapshots the job's public view and, once it is terminal, its result,
// under one lock: a view that reports Succeeded always carries the result
// (unless Config.MaxRetainedResults already evicted it). Reading Result and
// Info separately can tear across completion.
func (j *Job) View() (Info, any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var result any
	if j.state.Terminal() {
		result = j.result
	}
	return j.infoLocked(), result
}

// infoLocked builds the public view; the caller holds j.mu.
func (j *Job) infoLocked() Info {
	info := Info{
		ID:        j.id,
		Kind:      j.kind,
		Priority:  j.priority,
		State:     j.state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Batch:     j.batch,
		RequestID: j.requestID,
		Attempts:  j.prior + j.attempts,
		Recovered: j.recovered,
		Abandoned: j.abandoned,
	}
	if j.err != nil {
		info.Err = j.err.Error()
	}
	return info
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Events snapshots the job's flight-recorder timeline. Empty when the
// submission carried no recorder, or once the recorder has been evicted with
// the result payload (Config.MaxRetainedResults).
func (j *Job) Events() obs.RecorderSnapshot {
	j.mu.Lock()
	rec := j.recorder
	j.mu.Unlock()
	return rec.Snapshot()
}

// HasRecorder reports whether the job still holds a flight recorder.
func (j *Job) HasRecorder() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recorder != nil
}

// Wait blocks until the job finishes or ctx is cancelled. It returns the
// job's result and error; the error wraps context.Canceled when the job was
// cancelled (so errors.Is works through the chain).
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Result returns the job's result and error without blocking; ok is false
// while the job is unfinished. The result may be nil even on success once
// the job has aged past Config.MaxRetainedResults (the payload is dropped to
// bound memory; the job itself stays queryable).
func (j *Job) Result() (result any, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil, false
	}
	return j.result, j.err, true
}

// Cancel requests cancellation: a queued job finishes immediately as
// Cancelled — releasing its queue slot for new admissions, batch units
// included — and a running job's context is cancelled so the kernels abort
// at their next poll. Cancel is idempotent, and on a job that has already
// finished (any terminal state) it is a strict no-op: the state, result,
// error and timestamps are unchanged. Both properties are regression-tested
// in engine_test.go.
func (j *Job) Cancel() { j.cancel() }

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Workers and QueueDepth echo the effective configuration.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Submitted counts admitted jobs (including batch units); Rejected
	// counts submissions refused by admission control or after shutdown.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	// Queued and Running are current occupancy; BusyWorkers == Running.
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	BusyWorkers int `json:"busy_workers"`
	// Succeeded, Failed, Cancelled count finished jobs by outcome.
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// Retries counts attempt re-queues performed by retry policies; a job
	// that failed twice and then succeeded contributes 2.
	Retries int64 `json:"retries"`
	// Recovered counts jobs re-enqueued from the durable journal at boot.
	Recovered int64 `json:"recovered"`
	// Abandoned counts jobs Shutdown's drain deadline cancelled with work
	// still pending — the reconciliation number operators check against the
	// journal (those jobs stay non-terminal there and retry on next boot).
	Abandoned int64 `json:"abandoned"`
	// Batches counts admitted batch submissions; BatchUnits the jobs they
	// fanned out into (each unit is also counted in Submitted).
	Batches    int64 `json:"batches"`
	BatchUnits int64 `json:"batch_units"`
}

// Engine is the scheduler: a bounded priority queue drained by a fixed pool
// of workers.
type Engine struct {
	cfg Config

	mu         sync.Mutex
	cond       *sync.Cond
	queue      jobHeap
	jobs       map[string]*Job   // public registry (excludes batch units)
	order      []*Job            // registry in submission order, for List/eviction
	finished   int               // terminal jobs in order
	keepFrom   int               // order index from which finished jobs keep results
	live       map[*Job]struct{} // every non-terminal job, batch units included
	closed     bool
	nextID     uint64
	nextSeq    uint64
	running    int
	submits    int64
	rejects    int64
	succ       int64
	failed     int64
	cancels    int64
	retries    int64
	batches    int64
	batchUnits int64
	// retryBackoff counts jobs sitting out a retry backoff (neither queued
	// nor running). Workers must not exit while any remain, or a drain-style
	// Shutdown would report completion with work still pending.
	retryBackoff int
	recovered    int64
	abandoned    int64
	// abandoning is set once Shutdown's drain deadline has passed: jobs that
	// finish as cancelled from that point on were abandoned by the process,
	// not cancelled by a caller, and are marked so in their Info.
	abandoning bool

	wg sync.WaitGroup

	// Job-event dispatch (Config.OnJobEvent): transitions are appended to
	// notifyq under notifyMu at the point the engine commits them (so the
	// order matches the scheduler's), and a single dispatcher goroutine
	// delivers them without holding any engine lock.
	notifyMu   sync.Mutex
	notifyq    []JobEvent
	notifyKick chan struct{}
	notifyStop chan struct{}
	notifyOnce sync.Once
	notifyWG   sync.WaitGroup
}

// DefaultMaxRetained is the finished-job retention of a Config whose
// MaxRetained is unset.
const DefaultMaxRetained = 256

// New starts an engine with cfg's worker pool.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.MaxRetained <= 0 {
		cfg.MaxRetained = DefaultMaxRetained
	}
	if cfg.MaxRetainedResults <= 0 {
		cfg.MaxRetainedResults = 64
	}
	e := &Engine{
		cfg:  cfg,
		jobs: make(map[string]*Job),
		live: make(map[*Job]struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	if cfg.OnJobEvent != nil {
		e.notifyKick = make(chan struct{}, 1)
		e.notifyStop = make(chan struct{})
		e.notifyWG.Add(1)
		go e.notifier()
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// notify queues one lifecycle event for the dispatcher. Safe to call with
// e.mu held (the dispatcher never takes engine locks); a no-op without an
// OnJobEvent hook.
func (e *Engine) notify(typ string, j *Job) {
	if e.cfg.OnJobEvent == nil {
		return
	}
	ev := JobEvent{Type: typ, Job: j.Info()}
	e.notifyMu.Lock()
	e.notifyq = append(e.notifyq, ev)
	e.notifyMu.Unlock()
	select {
	case e.notifyKick <- struct{}{}:
	default:
	}
}

// notifier is the OnJobEvent dispatcher loop: drain, deliver, sleep. On stop
// it performs one final drain, so Shutdown never returns with undelivered
// events.
func (e *Engine) notifier() {
	defer e.notifyWG.Done()
	deliver := func() {
		e.notifyMu.Lock()
		q := e.notifyq
		e.notifyq = nil
		e.notifyMu.Unlock()
		for _, ev := range q {
			e.cfg.OnJobEvent(ev)
		}
	}
	for {
		deliver()
		select {
		case <-e.notifyKick:
		case <-e.notifyStop:
			deliver()
			return
		}
	}
}

// stopNotifier flushes and stops the dispatcher (idempotent).
func (e *Engine) stopNotifier() {
	if e.cfg.OnJobEvent == nil {
		return
	}
	e.notifyOnce.Do(func() { close(e.notifyStop) })
	e.notifyWG.Wait()
}

// Submit admits one job, returning its handle, or ErrQueueFull / ErrClosed.
func (e *Engine) Submit(sub Submission) (*Job, error) {
	return e.submit(sub, "", true)
}

func (e *Engine) submit(sub Submission, batch string, register bool) (*Job, error) {
	if sub.Task == nil {
		return nil, fmt.Errorf("engine: Submission.Task is required")
	}

	e.mu.Lock()
	if sub.ID != "" {
		if _, ok := e.jobs[sub.ID]; ok {
			e.rejects++
			e.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrDuplicateID, sub.ID)
		}
	}
	if sub.Recovered {
		// Recovery resubmits every non-terminal journalled job in one burst;
		// it is exempt from the queue-depth check (accepted work must never be
		// lost to the recovery burst itself) but not from closure.
		if e.closed {
			e.rejects++
			e.mu.Unlock()
			return nil, ErrClosed
		}
	} else if err := e.admitLocked(1); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	j := e.enqueueLocked(sub, batch, register)
	e.mu.Unlock()

	// Reap the job the moment its context dies while it still queues, so a
	// cancelled or deadline-expired job never occupies a worker.
	go e.watch(j)

	e.cond.Signal()
	return j, nil
}

// admitLocked is the admission check for n new jobs. Callers hold e.mu.
func (e *Engine) admitLocked(n int) error {
	if e.closed {
		e.rejects += int64(n)
		return ErrClosed
	}
	if e.queue.Len()+n > e.cfg.QueueDepth {
		e.rejects += int64(n)
		return ErrQueueFull
	}
	return nil
}

// enqueueLocked creates and queues one admitted job. Callers hold e.mu.
func (e *Engine) enqueueLocked(sub Submission, batch string, register bool) *Job {
	parent := sub.Parent
	if parent == nil {
		parent = context.Background()
	}
	id := sub.ID
	if id == "" {
		// Skip generated ids already taken by recovered jobs resubmitted
		// under their pre-crash names.
		for {
			e.nextID++
			id = fmt.Sprintf("job-%d", e.nextID)
			if _, ok := e.jobs[id]; !ok {
				break
			}
		}
	}
	e.nextSeq++
	now := time.Now()
	submitted := now
	if sub.Recovered && !sub.Accepted.IsZero() {
		submitted = sub.Accepted
	}
	j := &Job{
		id:        id,
		kind:      sub.Kind,
		priority:  sub.Priority,
		batch:     batch,
		requestID: sub.RequestID,
		seq:       e.nextSeq,
		task:      sub.Task,
		retry:     sub.Retry,
		recorder:  sub.Recorder,
		recovered: sub.Recovered,
		prior:     sub.PriorAttempts,
		state:     Queued,
		submitted: submitted,
		done:      make(chan struct{}),
		index:     -1,
		queuedAt:  now,
	}
	j.recorder.Add(obs.Event{Kind: obs.EvAdmit, Detail: sub.Kind, Extra: j.id, Value: float64(sub.Priority)})
	// Tasks read their own job id back via JobIDFromContext — the server's
	// per-job checkpoint sink is keyed on it.
	parent = context.WithValue(parent, jobIDKey{}, j.id)
	if sub.Timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(parent, sub.Timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(parent)
	}
	heap.Push(&e.queue, j)
	e.live[j] = struct{}{}
	e.submits++
	if sub.Recovered {
		e.recovered++
	}
	if register {
		e.jobs[j.id] = j
		e.order = append(e.order, j)
	}
	e.notify(EventAccepted, j)
	return j
}

// jobIDKey is the context key carrying a task's engine job id.
type jobIDKey struct{}

// JobIDFromContext returns the engine job id embedded in a task's context
// ("" outside a task). Layers below the engine use it to bind per-job
// resources — the server keys its grid-cache checkpoint sinks on it.
func JobIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// watch finishes a job as Cancelled if its context dies before a worker
// starts it (the worker checks again before running).
func (e *Engine) watch(j *Job) {
	select {
	case <-j.ctx.Done():
		e.mu.Lock()
		if j.state == Queued {
			if j.index >= 0 {
				heap.Remove(&e.queue, j.index)
			}
			e.finishLocked(j, nil, j.ctx.Err())
		}
		e.mu.Unlock()
	case <-j.done:
	}
}

// worker is the pool loop: pop the best queued job, run it, repeat. Workers
// drain retry backoffs too: they exit only once the engine is closed, the
// queue is empty AND no job is waiting out a backoff (such a job re-enters
// the queue when its timer fires).
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for e.queue.Len() == 0 && !(e.closed && e.retryBackoff == 0) {
			e.cond.Wait()
		}
		if e.queue.Len() == 0 {
			e.mu.Unlock()
			return
		}
		j := heap.Pop(&e.queue).(*Job)
		if err := j.ctx.Err(); err != nil {
			// Died while queued (watch may not have run yet).
			e.finishLocked(j, nil, err)
			e.mu.Unlock()
			continue
		}
		wait := time.Since(j.queuedAt)
		j.mu.Lock()
		j.state = Running
		j.started = time.Now()
		j.attempts++
		attempt := j.attempts
		j.mu.Unlock()
		e.running++
		e.notify(EventStarted, j)
		e.mu.Unlock()

		if observe := e.cfg.ObserveQueueWait; observe != nil {
			observe(wait)
		}
		j.recorder.Add(obs.Event{Kind: obs.EvStart, Attempt: attempt, Duration: wait})
		var result any
		var err error
		if obs.ProfLabelsEnabled() {
			// The closure and label set allocate, so this branch only exists
			// when attribution is on; the labelled context is handed to the
			// task, and solver phases layer their own labels on top of it.
			pprof.Do(j.ctx, pprof.Labels("job_id", j.id, "job_kind", j.kind), func(lc context.Context) {
				result, err = e.runTask(j, lc)
			})
		} else {
			result, err = e.runTask(j, j.ctx)
		}

		e.mu.Lock()
		e.running--
		// Retries continue during a drain (Shutdown's contract is to finish
		// accepted work); the drain deadline's hard cancel ends them, since
		// cancellation is never retried.
		if j.retry.shouldRetry(attempt, err) && j.ctx.Err() == nil {
			e.scheduleRetryLocked(j, attempt, err)
			e.mu.Unlock()
			continue
		}
		e.finishLocked(j, result, err)
		e.mu.Unlock()
	}
}

// scheduleRetryLocked parks j for its backoff and re-queues it when the
// timer fires. Callers hold e.mu. While parked the job reports Queued but
// holds no heap slot; cancellation during the backoff is handled by watch
// (which finishes Queued jobs whose context died), and the timer then finds
// the job terminal and only drops the backoff count.
func (e *Engine) scheduleRetryLocked(j *Job, attempt int, cause error) {
	e.retries++
	e.retryBackoff++
	j.mu.Lock()
	j.state = Queued
	j.mu.Unlock()
	e.notify(EventRetried, j)
	delay := j.retry.backoff(attempt)
	detail := ""
	if cause != nil {
		detail = cause.Error()
	}
	j.recorder.Add(obs.Event{Kind: obs.EvRetry, Detail: detail, Attempt: attempt, Duration: delay})
	time.AfterFunc(delay, func() {
		e.mu.Lock()
		e.retryBackoff--
		requeued := false
		j.mu.Lock()
		if j.state == Queued && j.ctx.Err() == nil {
			requeued = true
		}
		j.mu.Unlock()
		if requeued {
			j.queuedAt = time.Now()
			heap.Push(&e.queue, j)
		}
		e.mu.Unlock()
		// Wake a worker for the re-queued job, or — when the engine is
		// draining — let the workers re-check their exit condition.
		e.cond.Broadcast()
	})
}

// runTask executes the task, converting panics into errors (wrapping
// ErrJobPanic) so one bad job cannot take down the pool. The engine.worker
// fault-injection site strikes here, before the task runs. ctx is the job's
// context, possibly wrapped with pprof labels by the worker.
func (e *Engine) runTask(j *Job, ctx context.Context) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("%w: job %s: %v", ErrJobPanic, j.id, r)
		}
	}()
	if err := siteWorker.Hit(); err != nil {
		return nil, err
	}
	return j.task(ctx)
}

// finishLocked moves a job to its terminal state. Callers hold e.mu; job
// fields are additionally written under j.mu so lock-free-of-e readers
// (Job.Info, Job.Result) stay consistent. Lock order is always e.mu → j.mu.
func (e *Engine) finishLocked(j *Job, result any, err error) {
	if j.state.Terminal() {
		return
	}
	// Prefer the context's verdict: a task that returns a garbled error (or
	// nil) after its context died still counts as cancelled.
	if cerr := j.ctx.Err(); cerr != nil && (err == nil || !isCancellation(err)) {
		if err == nil {
			err = cerr
		} else {
			err = fmt.Errorf("%v (run abandoned: %w)", err, cerr)
		}
	}
	j.mu.Lock()
	j.result = result
	j.err = err
	j.finished = time.Now()
	// A terminal job never runs again, and its task closure holds the
	// request's inputs (sequences, options): drop it so the retained job
	// pins only its metadata and result.
	j.task = nil
	switch {
	case err == nil:
		j.state = Succeeded
		e.succ++
	case isCancellation(err):
		j.state = Cancelled
		// A cancellation landing after Shutdown's drain deadline means the
		// process abandoned the job, not that a caller cancelled it.
		if e.abandoning {
			j.abandoned = true
			e.abandoned++
		}
		e.cancels++
	default:
		j.state = Failed
		e.failed++
	}
	j.mu.Unlock()
	detail := j.state.String()
	extra := ""
	if err != nil {
		extra = err.Error()
	}
	j.recorder.Add(obs.Event{Kind: obs.EvFinish, Detail: detail, Extra: extra, Attempt: j.attempts})
	delete(e.live, j)
	j.cancel() // release the context's timer/goroutine
	close(j.done)
	e.notify(EventFinished, j)
	if j.batch == "" {
		e.evictLocked(j)
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// evictLocked records that x, a registered job, has just finished. It drops
// the oldest finished registered jobs beyond MaxRetained, and drops the
// result payloads of all but the newest MaxRetainedResults finished jobs: a
// retained job keeps its metadata (finishLocked already dropped its task and
// with it the request's inputs), but its result can be an entire alignment
// response, and 256 of those pin real memory on a long-lived server. Both
// steps stop early, so a finish costs amortised O(1), not a registry walk.
func (e *Engine) evictLocked(x *Job) {
	e.finished++
	if e.finished > e.cfg.MaxRetained {
		// The oldest finished jobs lead e.order, behind at most the live
		// jobs, which slide up against the untouched tail.
		i, w := 0, 0
		for ; e.finished > e.cfg.MaxRetained; i++ {
			if j := e.order[i]; j.state.Terminal() {
				delete(e.jobs, j.id)
				e.finished--
			} else {
				e.order[w] = j
				w++
			}
		}
		copy(e.order[i-w:i], e.order[:w])
		clear(e.order[:i-w])
		e.order = e.order[i-w:]
		e.keepFrom = max(e.keepFrom-(i-w), 0)
	}
	if e.cfg.MaxRetainedResults >= e.cfg.MaxRetained || e.finished <= e.cfg.MaxRetainedResults {
		return // every retained job keeps its result
	}
	// Finished jobs from e.order[e.keepFrom] on keep their results, older
	// ones have lost theirs. x is either older than all the keepers, or
	// joins them and pushes the oldest one out.
	drop := x
	if x.seq >= e.order[e.keepFrom].seq {
		for !e.order[e.keepFrom].state.Terminal() {
			e.keepFrom++
		}
		drop = e.order[e.keepFrom]
		e.keepFrom++
	}
	drop.mu.Lock()
	drop.result = nil
	drop.recorder = nil // the flight recorder ages out with the payload
	drop.mu.Unlock()
}

// Job looks up a registered job by id.
func (e *Engine) Job(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// Cancel cancels a registered job by id.
func (e *Engine) Cancel(id string) error {
	j, err := e.Job(id)
	if err != nil {
		return err
	}
	j.Cancel()
	return nil
}

// List snapshots every registered job, newest first.
func (e *Engine) List() []Info {
	e.mu.Lock()
	jobs := slices.Clone(e.order)
	e.mu.Unlock()
	infos := make([]Info, len(jobs))
	for i, j := range jobs {
		infos[len(jobs)-1-i] = j.Info()
	}
	return infos
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Workers:     e.cfg.Workers,
		QueueDepth:  e.cfg.QueueDepth,
		Submitted:   e.submits,
		Rejected:    e.rejects,
		Queued:      e.queue.Len(),
		Running:     e.running,
		BusyWorkers: e.running,
		Succeeded:   e.succ,
		Failed:      e.failed,
		Cancelled:   e.cancels,
		Retries:     e.retries,
		Recovered:   e.recovered,
		Abandoned:   e.abandoned,
		Batches:     e.batches,
		BatchUnits:  e.batchUnits,
	}
}

// Shutdown stops admissions, then drains: queued and running jobs may finish
// until ctx is cancelled, at which point every remaining job is cancelled.
// It returns once all workers have exited (nil if the drain completed, ctx's
// error if jobs had to be cancelled).
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		e.stopNotifier()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		e.stopNotifier()
		return nil
	case <-ctx.Done():
	}

	// Drain deadline passed: cancel everything still live — queued or
	// running, batch units included — and wait for the workers to notice.
	// The abandoning flag makes finishLocked classify these cancellations
	// as process abandonment (Info.Abandoned, Stats.Abandoned) so the
	// journal keeps them non-terminal for the next boot.
	e.mu.Lock()
	e.abandoning = true
	pending := make([]*Job, 0, len(e.live))
	for j := range e.live {
		pending = append(pending, j)
	}
	e.mu.Unlock()
	for _, j := range pending {
		j.cancel()
	}
	<-done
	e.stopNotifier()
	return ctx.Err()
}

// jobHeap orders by priority desc, then submission sequence asc (FIFO among
// equals).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].priority != h[k].priority {
		return h[i].priority > h[k].priority
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].index = i
	h[k].index = k
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}
