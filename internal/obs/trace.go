// Package obs is the observability layer of the repository: a lightweight
// run tracer whose spans export as Chrome trace_event JSON
// (chrome://tracing-loadable), a minimal Prometheus-text metrics registry,
// and HTTP middleware for structured request logging with request IDs.
//
// Everything is standard library only, safe for concurrent use, and — like
// stats.Counters — nil-receiver safe: an uninstrumented run passes a nil
// *Trace through every layer and pays nothing, which is what keeps the DP
// fill hot paths allocation-free when tracing is off (pinned by the
// benchmark guard in trace_test.go).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span names emitted by the FastLSA layers. Centralising them here keeps the
// trace vocabulary documented in one place (docs/OBSERVABILITY.md lists the
// same names).
const (
	// SpanGeneralCase covers one FastLSA general-case split: the grid fill
	// plus the recursive walk through the blocks the path crosses.
	SpanGeneralCase = "general-case"
	// SpanBaseCase covers the full-matrix fill of one base case; its
	// traceback is the SpanTraceback that follows.
	SpanBaseCase = "base-case"
	// SpanGridFill covers one Fill Cache (sequential block loop or parallel
	// wavefront, whichever ran).
	SpanGridFill = "grid-fill"
	// SpanFillTile covers one wavefront tile of a parallel fill, tagged with
	// its Figure 13 phase (1 ramp-up, 2 saturated, 3 ramp-down) and the
	// worker that executed it.
	SpanFillTile = "fill-tile"
	// SpanFillBlock covers one grid block of a sequential Fill Cache.
	SpanFillBlock = "fill-block"
	// SpanTraceback covers one base-case traceback walk.
	SpanTraceback = "traceback"
	// SpanSearchFilter covers the q-gram index probe of a corpus search.
	SpanSearchFilter = "search-filter"
	// SpanSearchVerify covers the score-only verify scan over the
	// candidates (or the whole database on a brute-force search).
	SpanSearchVerify = "search-verify"
	// SpanSearchReconstruct covers the exact-alignment reconstruction of
	// the leading hits.
	SpanSearchReconstruct = "search-reconstruct"
	// SpanBackendRoute covers the backend routing decision of one facade
	// Align call: AlgoAuto's divergence estimate, or the explicit pick. Its
	// tags carry the chosen backend and the routing reason.
	SpanBackendRoute = "backend.route"
	// SpanWFAFill covers the per-score wavefront loop of a WFA run.
	SpanWFAFill = "wfa-fill"
	// SpanWFABi covers one bidirectional (meet-in-the-middle) WFA run:
	// the windowed score pass, the recursive split passes and the path
	// stitch together.
	SpanWFABi = "wfa-biwfa"
	// SpanJournalReplay covers the startup replay of the durable job
	// journal: segment scan, per-job aggregation and re-enqueue. Its tags
	// carry the record count (Rows) and recovered-job count (Cols).
	SpanJournalReplay = "journal.replay"
)

// Span categories (the "cat" field of Chrome trace events).
const (
	// CatFastLSA tags the recursion-level spans.
	CatFastLSA = "fastlsa"
	// CatWavefront tags the parallel tile spans.
	CatWavefront = "wavefront"
	// CatHTTP tags request-level spans recorded by servers.
	CatHTTP = "http"
	// CatSearch tags corpus-search phase spans.
	CatSearch = "search"
	// CatBackend tags backend-layer routing spans.
	CatBackend = "backend"
	// CatWFA tags wavefront-kernel spans.
	CatWFA = "wfa"
	// CatJournal tags durability-layer spans (journal replay).
	CatJournal = "journal"
)

// DefaultTraceSpans is the default ring-buffer capacity of a Trace. At ~80
// bytes per span this bounds a trace to a few megabytes; older spans are
// dropped (counted in Dropped) once the ring wraps.
const DefaultTraceSpans = 1 << 15

// Tags carries the optional dimensions of a span. The zero value means "no
// tags"; zero fields are omitted from the Chrome export.
type Tags struct {
	// Rows and Cols give the subproblem or tile extent in DP cells.
	Rows, Cols int
	// Phase is the Figure 13 wavefront phase (1..3; 0 = not a tile span).
	Phase int
	// Worker is the 1-based worker lane that executed the span (0 = the
	// run's main goroutine). It becomes the Chrome thread id, so parallel
	// tiles render on separate tracks.
	Worker int
	// Backend and Reason carry the routing decision of a backend.route
	// span (which aligner backend the run was dispatched to, and why);
	// empty on every other span kind.
	Backend, Reason string
}

// Span is one recorded interval.
type Span struct {
	// Name and Cat identify the span kind (see the Span*/Cat* constants).
	Name, Cat string
	// Start is the offset from the trace epoch; Dur the span length.
	Start, Dur time.Duration
	// Tags carries the optional dimensions.
	Tags Tags
}

// totalKey aggregates spans by (name, phase) for the running totals that
// survive ring-buffer overwrites.
type totalKey struct {
	name  string
	phase int
}

type totalVal struct {
	count int64
	total time.Duration
}

// Trace is a ring-buffered span recorder. Attach one to a run through
// core.Options / fastlsa.Options; every method is safe for concurrent use
// and nil-receiver safe, so the same code path serves traced and untraced
// runs.
//
// The recording API is allocation-free by construction: Begin reads the
// clock (or returns 0 on a nil receiver, without a clock read), End appends
// one fixed-size Span into the pre-allocated ring. Ring overflow drops the
// oldest spans but keeps per-(name, phase) running totals exact, so Totals
// stays correct on runs bigger than the buffer.
type Trace struct {
	mu      sync.Mutex
	label   string
	epoch   time.Time
	buf     []Span
	head    int // next write slot
	n       int // spans currently buffered (<= cap)
	total   int64
	dropped int64
	totals  map[totalKey]totalVal
}

// NewTrace returns a trace with the given ring capacity (<= 0 selects
// DefaultTraceSpans). The epoch — the zero point of every span offset — is
// the moment of creation.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	return &Trace{
		epoch:  time.Now(),
		buf:    make([]Span, capacity),
		totals: make(map[totalKey]totalVal),
	}
}

// SetLabel names the traced run ("align req-42", a job id, ...). The label
// becomes the process name in the Chrome export.
func (t *Trace) SetLabel(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// Enabled reports whether spans are being recorded (false on nil).
func (t *Trace) Enabled() bool { return t != nil }

// Begin returns the current offset from the trace epoch, the start token
// for a subsequent End. On a nil receiver it returns 0 without reading the
// clock, so a disabled hot path costs two nil checks and nothing else.
func (t *Trace) Begin() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// End records a span that started at the Begin-token start and ends now.
// No-op on a nil receiver.
func (t *Trace) End(name, cat string, start time.Duration, tags Tags) {
	if t == nil {
		return
	}
	dur := time.Since(t.epoch) - start
	if dur < 0 {
		dur = 0
	}
	t.add(Span{Name: name, Cat: cat, Start: start, Dur: dur, Tags: tags})
}

// add appends one finished span to the ring and the running totals.
func (t *Trace) add(s Span) {
	t.mu.Lock()
	t.buf[t.head] = s
	t.head = (t.head + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
	t.total++
	k := totalKey{name: s.Name, phase: s.Tags.Phase}
	v := t.totals[k]
	v.count++
	v.total += s.Dur
	t.totals[k] = v
	t.mu.Unlock()
}

// Len reports the number of buffered spans; Dropped how many were evicted
// by ring overflow.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped reports how many spans were evicted by ring overflow.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans copies the buffered spans in recording order (oldest first).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansLocked()
}

func (t *Trace) spansLocked() []Span {
	out := make([]Span, 0, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// SpanTotal is one row of Totals: the aggregate of every span with the same
// (Name, Phase), exact even when the ring dropped individual spans.
type SpanTotal struct {
	Name  string
	Phase int
	Count int64
	Total time.Duration
}

// Totals aggregates all recorded spans by (name, phase), sorted by name then
// phase. Unlike Spans, the totals cover every span ever recorded, including
// those the ring has dropped.
func (t *Trace) Totals() []SpanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanTotal, 0, len(t.totals))
	for k, v := range t.totals {
		out = append(out, SpanTotal{Name: k.name, Phase: k.phase, Count: v.count, Total: v.total})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// chromeEvent is one trace_event object. Only the fields chrome://tracing
// (and Perfetto) consume are emitted.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`            // microseconds since epoch
	Dur  int64          `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object form of the trace_event format.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// Metadata documents the exporter and any ring-buffer loss.
	Metadata map[string]any `json:"metadata,omitempty"`
}

// ChromeTrace renders the buffered spans in Chrome trace_event JSON (the
// object form with a traceEvents array), loadable in chrome://tracing or
// https://ui.perfetto.dev. Spans are complete events ("ph":"X"); the worker
// tag maps to the thread id so parallel tiles get their own tracks.
func (t *Trace) ChromeTrace() ([]byte, error) {
	if t == nil {
		return json.Marshal(chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"})
	}
	// One locked snapshot: spans and the recorded/dropped counts must come
	// from the same instant, or a concurrently recording run could export a
	// trace whose metadata disagrees with its own event list (e.g. a
	// dropped_spans count that excludes spans evicted between two reads).
	t.mu.Lock()
	spans := t.spansLocked()
	label, dropped, total := t.label, t.dropped, t.total
	t.mu.Unlock()
	if label == "" {
		label = "fastlsa"
	}

	events := make([]chromeEvent, 0, len(spans)+2)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": label},
	})
	tids := map[int]bool{}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   s.Start.Microseconds(),
			Dur:  s.Dur.Microseconds(),
			PID:  1,
			TID:  s.Tags.Worker,
		}
		if s.Tags != (Tags{}) {
			args := make(map[string]any, 4)
			if s.Tags.Rows != 0 || s.Tags.Cols != 0 {
				args["rows"] = s.Tags.Rows
				args["cols"] = s.Tags.Cols
			}
			if s.Tags.Phase != 0 {
				args["phase"] = s.Tags.Phase
			}
			if s.Tags.Backend != "" {
				args["backend"] = s.Tags.Backend
			}
			if s.Tags.Reason != "" {
				args["reason"] = s.Tags.Reason
			}
			if len(args) > 0 {
				ev.Args = args
			}
		}
		events = append(events, ev)
		tids[ev.TID] = true
	}
	for tid := range tids {
		name := "main"
		if tid > 0 {
			name = fmt.Sprintf("worker-%d", tid)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	return json.Marshal(chromeFile{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata: map[string]any{
			"exporter":       "fastlsa/internal/obs",
			"spans_recorded": total,
			// dropped_spans is the documented key; spans_dropped is kept for
			// consumers of the earlier export shape.
			"dropped_spans": dropped,
			"spans_dropped": dropped,
		},
	})
}

// WriteChrome writes the Chrome trace_event JSON to w.
func (t *Trace) WriteChrome(w io.Writer) error {
	b, err := t.ChromeTrace()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
