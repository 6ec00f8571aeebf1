package obs

import (
	"sync"
	"time"
)

// Flight-recorder event kinds. The recorder is schema-free — any string is a
// valid kind — but the instrumented layers stick to this vocabulary so
// consumers (the /v1/jobs/{id}/events endpoint, the incident ring, tests)
// can match on it.
const (
	// EvAdmit marks queue admission: the job entered the engine's bounded
	// queue. Detail is the job kind.
	EvAdmit = "queue.admit"
	// EvStart marks a worker picking the job up. Attempt is the 1-based
	// attempt number; Duration is the queue wait.
	EvStart = "job.start"
	// EvRetry marks a failed attempt being re-queued. Attempt is the attempt
	// that failed, Detail the error that caused it (injected faults surface
	// here), and Duration the backoff delay before the next attempt.
	EvRetry = "job.retry"
	// EvFinish is the terminal event. Detail is the final state
	// (succeeded/failed/cancelled), Extra the error when there is one.
	EvFinish = "job.finish"
	// EvPhase marks the completion of one solver/search phase span. Detail
	// is the span name (grid-fill, traceback, wfa-fill, …), Extra the span
	// category, Duration the phase's wall time.
	EvPhase = "phase"
	// EvRoute records the aligner-backend routing decision. Detail is the
	// backend, Extra the reason, Value the q-gram identity estimate when one
	// was computed (0 otherwise).
	EvRoute = "route"
	// EvBudgetFallback marks a WFA run exceeding its memory budget and being
	// transparently re-run on planned FastLSA. Detail is the WFA error.
	EvBudgetFallback = "route.budget-fallback"
	// EvRecover marks a job re-enqueued from the durable journal after a
	// restart (docs/DURABILITY.md). Detail is the job kind, Extra "resumed"
	// when a grid-cache checkpoint existed for it, Attempt the attempts the
	// journal had recorded before the crash.
	EvRecover = "job.recover"
)

// Event is one flight-recorder entry. Offset is the monotonic time since the
// recorder's creation; the remaining fields are a small fixed vocabulary so
// recording never builds maps or nested structures.
type Event struct {
	// Offset is the time since the recorder's epoch (monotonic clock).
	Offset time.Duration `json:"offsetNs"`
	// Kind is the event type (see the Ev* constants).
	Kind string `json:"kind"`
	// Detail and Extra carry kind-specific strings (error text, span name,
	// backend, …).
	Detail string `json:"detail,omitempty"`
	Extra  string `json:"extra,omitempty"`
	// Attempt is the engine attempt number, when relevant.
	Attempt int `json:"attempt,omitempty"`
	// Duration carries a kind-specific duration (queue wait, backoff delay,
	// phase wall time).
	Duration time.Duration `json:"durationNs,omitempty"`
	// Value carries a kind-specific number (e.g. the routing identity
	// estimate).
	Value float64 `json:"value,omitempty"`
}

// DefaultRecorderEvents is the default Recorder capacity: the head keeps the
// first events of a job verbatim and a small tail ring keeps the most recent
// ones, so both the admission story and the terminal events of a long, noisy
// job survive.
const DefaultRecorderEvents = 256

// tailFraction of the capacity is reserved for the most-recent-events ring.
const tailFraction = 4

// Recorder is a bounded, allocation-light per-job flight recorder. A nil
// *Recorder is a valid no-op whose Add path allocates nothing (guarded by an
// AllocsPerRun test, like the disabled Trace). A non-nil recorder is safe for
// concurrent use.
//
// Retention is head+tail: the first events are kept verbatim, and once the
// head is full a small ring keeps the newest events, dropping from the
// middle. Dropped events stay counted, so a snapshot always reports how much
// of the timeline is missing.
type Recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	head    []Event // first headCap events, in order
	headCap int
	tail    []Event // ring of the newest events once head is full
	tailPos int     // next write position in tail once len(tail) == cap(tail)
	dropped int
	total   int
}

// NewRecorder returns a recorder holding at most capacity events
// (DefaultRecorderEvents when capacity <= 0). The epoch — the zero offset of
// every event — is the moment of creation.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderEvents
	}
	tailCap := capacity / tailFraction
	if tailCap < 1 {
		tailCap = 1
	}
	headCap := capacity - tailCap
	if headCap < 1 {
		headCap = 1
	}
	return &Recorder{
		epoch:   time.Now(),
		headCap: headCap,
		tail:    make([]Event, 0, tailCap),
	}
}

// Add records one event, stamping its Offset from the recorder's epoch. The
// caller fills every other field. Nil-safe and allocation-free on a nil
// receiver.
func (r *Recorder) Add(e Event) {
	if r == nil {
		return
	}
	r.addAt(e, time.Now())
}

// addAt records e as of now (the caller's clock read). Nil-safe.
func (r *Recorder) addAt(e Event, now time.Time) {
	if r == nil {
		return
	}
	e.Offset = now.Sub(r.epoch)
	r.mu.Lock()
	r.total++
	switch {
	case len(r.head) < r.headCap:
		if r.head == nil {
			r.head = make([]Event, 0, r.headCap)
		}
		r.head = append(r.head, e)
	case len(r.tail) < cap(r.tail):
		r.tail = append(r.tail, e)
	default:
		r.tail[r.tailPos] = e
		r.tailPos = (r.tailPos + 1) % len(r.tail)
		r.dropped++
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.head) + len(r.tail)
}

// RecorderSnapshot is a point-in-time copy of a recorder's timeline.
type RecorderSnapshot struct {
	// Events is the retained timeline in recording order. When Dropped > 0
	// there is a gap between the head events and the trailing ring.
	Events []Event `json:"events"`
	// Dropped counts events lost from the middle of the timeline.
	Dropped int `json:"droppedEvents,omitempty"`
	// Total counts every event ever recorded (len(Events) + Dropped).
	Total int `json:"totalEvents"`
}

// Snapshot copies the retained timeline. Nil-safe: a nil recorder snapshots
// as empty.
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{Events: []Event{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.head)+len(r.tail))
	out = append(out, r.head...)
	out = append(out, r.tail[r.tailPos:]...)
	out = append(out, r.tail[:r.tailPos]...)
	return RecorderSnapshot{Events: out, Dropped: r.dropped, Total: r.total}
}
