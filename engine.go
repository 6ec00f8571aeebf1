package fastlsa

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fastlsa/internal/engine"
)

// Engine-facing aliases and errors: the scheduler lives in internal/engine;
// these make it part of the public API surface.
type (
	// EngineConfig tunes the worker pool, queue bound and retention.
	EngineConfig = engine.Config
	// EngineStats is a snapshot of the scheduler counters.
	EngineStats = engine.Stats
	// Job is a handle on one submitted job.
	Job = engine.Job
	// JobInfo is a point-in-time public view of a job.
	JobInfo = engine.Info
	// JobState is a job lifecycle stage.
	JobState = engine.State
	// Batch is a handle on a batch submission.
	Batch = engine.Batch
	// BatchResult is one batch unit's outcome.
	BatchResult = engine.BatchResult
	// RetryPolicy re-queues a job after transient failures: max attempts,
	// exponential backoff with jitter, and a retry-on classifier (see
	// RetryTransient). Cancellation and deadline expiry never retry.
	RetryPolicy = engine.RetryPolicy
	// JobEvent is one job lifecycle notification delivered to
	// EngineConfig.OnJobEvent (the durability hook; see docs/DURABILITY.md).
	JobEvent = engine.JobEvent
)

// Job lifecycle event types (JobEvent.Type).
const (
	JobEventAccepted = engine.EventAccepted
	JobEventStarted  = engine.EventStarted
	JobEventRetried  = engine.EventRetried
	JobEventFinished = engine.EventFinished
)

// Job lifecycle stages.
const (
	JobQueued    = engine.Queued
	JobRunning   = engine.Running
	JobSucceeded = engine.Succeeded
	JobFailed    = engine.Failed
	JobCancelled = engine.Cancelled
)

// Engine error sentinels (test with errors.Is).
var (
	// ErrQueueFull rejects a submission when the queue is at capacity.
	ErrQueueFull = engine.ErrQueueFull
	// ErrEngineClosed rejects submissions after Shutdown.
	ErrEngineClosed = engine.ErrClosed
	// ErrJobNotFound reports an unknown job id.
	ErrJobNotFound = engine.ErrNotFound
	// ErrJobPanic wraps the failure of a job whose task panicked. The panic
	// is isolated to the job (the pool survives) and RetryTransient classifies
	// it as retryable.
	ErrJobPanic = engine.ErrJobPanic
	// ErrDuplicateJobID rejects a submission whose explicit JobOptions.ID is
	// already registered.
	ErrDuplicateJobID = engine.ErrDuplicateID
)

// JobIDFromContext returns the engine job id embedded in a task's context
// ("" outside an engine task). Use it inside a submitted task to bind
// per-job resources — e.g. a per-job Options.Checkpoint sink.
func JobIDFromContext(ctx context.Context) string { return engine.JobIDFromContext(ctx) }

// RetryTransient is the retry classifier for alignment jobs: it retries
// panics (ErrJobPanic), injected faults, and transient resource pressure
// (ErrBudgetExceeded — a budget race against concurrent runs can clear), but
// never cancellation/deadline expiry, ErrInvalidInput, or ErrBudgetTooSmall
// (deterministic: every up-front budget refusal, whatever the engine, fails
// the same submission the same way every attempt).
// Use it as JobOptions.Retry.RetryOn.
func RetryTransient(err error) bool {
	if !engine.Retryable(err) {
		return false
	}
	if errors.Is(err, ErrInvalidInput) || errors.Is(err, ErrBudgetTooSmall) {
		return false
	}
	return true
}

// JobOptions tunes one submission to an Engine.
type JobOptions struct {
	// ID, when non-empty, submits the job under an explicit id instead of an
	// engine-generated one (journal recovery resubmits jobs under their
	// pre-crash ids); a collision fails with ErrDuplicateJobID.
	ID string
	// Recovered marks a job re-enqueued from a durable journal after a
	// restart: echoed in JobInfo, counted in EngineStats.Recovered, and
	// exempt from the queue-depth admission check.
	Recovered bool
	// PriorAttempts offsets JobInfo.Attempts by the attempts a journal had
	// recorded before a crash (recovery only).
	PriorAttempts int
	// Accepted is when the client's submission was first accepted, as a
	// journal recorded it (recovery only): a recovered job reports it as its
	// JobInfo.Submitted instead of the resubmit time. Ignored unless
	// Recovered.
	Accepted time.Time
	// Priority orders the queue (higher first; FIFO among equals).
	Priority int
	// Timeout, when > 0, bounds the job's total lifetime (queue wait plus
	// execution).
	Timeout time.Duration
	// Context, when non-nil, parents the job's context — pass an HTTP
	// request context so a client disconnect cancels the job.
	Context context.Context
	// RequestID, when non-empty, ties the job to the originating request for
	// log correlation; it is echoed in JobInfo.
	RequestID string
	// Retry, when enabled (MaxAttempts > 1), re-queues the job after
	// retryable failures with exponential backoff. Pair it with RetryTransient
	// as the RetryOn classifier for alignment work.
	Retry RetryPolicy
	// Recorder, when non-nil, is the job's flight recorder: the engine logs
	// lifecycle events (admission, attempt starts, retries, completion) into
	// it, and the Submit* helpers thread it into the run's Options so routing
	// decisions and phase completions land on the same
	// timeline. Snapshot it with Job.Events. Batch submissions ignore it (a
	// shared recorder would interleave the units' timelines).
	Recorder *Recorder
}

func (jo JobOptions) submission(kind string, task engine.Task) engine.Submission {
	return engine.Submission{
		Kind:          kind,
		ID:            jo.ID,
		Recovered:     jo.Recovered,
		PriorAttempts: jo.PriorAttempts,
		Accepted:      jo.Accepted,
		Priority:      jo.Priority,
		Timeout:       jo.Timeout,
		Parent:        jo.Context,
		RequestID:     jo.RequestID,
		Retry:         jo.Retry,
		Recorder:      jo.Recorder,
		Task:          task,
	}
}

// Engine schedules alignment work over a bounded queue and a fixed worker
// pool, with per-job priorities, deadlines and cancellation. Each job runs
// with a context derived from its submission; cancelling it (Job.Cancel, a
// parent-context cancellation, deadline expiry, or Shutdown) makes the DP
// kernels abort promptly, so abandoned work stops consuming CPU.
type Engine struct {
	e *engine.Engine
}

// NewEngine starts an engine. The zero config selects GOMAXPROCS workers, a
// queue of 4x that, and retention of the last 256 finished jobs.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{e: engine.New(cfg)}
}

// SubmitFunc submits an arbitrary task under the given kind label.
func (en *Engine) SubmitFunc(kind string, task func(ctx context.Context) (any, error), jo JobOptions) (*Job, error) {
	return en.e.Submit(jo.submission(kind, task))
}

// bind hands opt to a job's run: the job's own context, and the job's
// flight recorder unless opt brings one.
func (jo JobOptions) bind(opt Options, ctx context.Context) Options {
	opt.Context = ctx
	if opt.Recorder == nil {
		opt.Recorder = jo.Recorder
	}
	return opt
}

// SubmitAlign queues a pairwise alignment; the job's result is *Alignment.
// opt.Context is overridden with the job's own context.
func (en *Engine) SubmitAlign(a, b *Sequence, opt Options, jo JobOptions) (*Job, error) {
	return en.e.Submit(jo.submission("align", func(ctx context.Context) (any, error) {
		return Align(a, b, jo.bind(opt, ctx))
	}))
}

// SequencePair is one unit of an alignment batch.
type SequencePair struct {
	A, B *Sequence
}

// SubmitAlignBatch queues one alignment per pair as a single batch: all
// units are admitted atomically (ErrQueueFull when the queue cannot take
// them all) and their results stream on Batch.Results as each pair finishes.
// Each unit's result is *Alignment.
func (en *Engine) SubmitAlignBatch(pairs []SequencePair, opt Options, jo JobOptions) (*Batch, error) {
	tasks := make([]engine.Task, len(pairs))
	for i, p := range pairs {
		if p.A == nil || p.B == nil {
			return nil, fmt.Errorf("fastlsa: batch pair %d has a nil sequence", i)
		}
		a, b := p.A, p.B
		tasks[i] = func(ctx context.Context) (any, error) {
			o := opt
			o.Context = ctx
			return Align(a, b, o)
		}
	}
	return en.e.SubmitBatch(engine.BatchSubmission{
		Kind:      "batch-align",
		Priority:  jo.Priority,
		Timeout:   jo.Timeout,
		Parent:    jo.Context,
		RequestID: jo.RequestID,
		Retry:     jo.Retry,
		Tasks:     tasks,
	})
}

// SubmitBatchFunc submits arbitrary tasks as one atomically-admitted batch.
func (en *Engine) SubmitBatchFunc(kind string, tasks []func(ctx context.Context) (any, error), jo JobOptions) (*Batch, error) {
	ts := make([]engine.Task, len(tasks))
	for i, t := range tasks {
		ts[i] = t
	}
	return en.e.SubmitBatch(engine.BatchSubmission{
		Kind:      kind,
		Priority:  jo.Priority,
		Timeout:   jo.Timeout,
		Parent:    jo.Context,
		RequestID: jo.RequestID,
		Retry:     jo.Retry,
		Tasks:     ts,
	})
}

// Job looks up a job by id (ErrJobNotFound when unknown or evicted).
func (en *Engine) Job(id string) (*Job, error) { return en.e.Job(id) }

// Cancel cancels a job by id.
func (en *Engine) Cancel(id string) error { return en.e.Cancel(id) }

// List snapshots all retained jobs, newest first.
func (en *Engine) List() []JobInfo { return en.e.List() }

// Stats snapshots the engine counters.
func (en *Engine) Stats() EngineStats { return en.e.Stats() }

// Shutdown stops admissions and drains until ctx is cancelled, then cancels
// whatever is still running and waits for the workers to exit.
func (en *Engine) Shutdown(ctx context.Context) error { return en.e.Shutdown(ctx) }
