package obs

import (
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// currentLabels returns the pprof labels of the calling goroutine as the
// debug=1 goroutine profile prints them ("" when it has none): the runtime
// offers no direct getter.
func currentLabels(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if !strings.Contains(rec, "obs.currentLabels") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if l, ok := strings.CutPrefix(line, "# labels: "); ok {
				return l
			}
		}
		return ""
	}
	t.Fatal("calling goroutine missing from the goroutine profile")
	return ""
}

// phaseSeconds reads one (backend, phase) row of the accumulator table.
func phaseSeconds(backend, phase string) float64 {
	for _, p := range PhaseSeconds() {
		if p.Backend == backend && p.Phase == phase {
			return p.Seconds
		}
	}
	return -1
}

// Labels disabled is the library default, so a zero handle's Phase/End must
// cost nothing beyond its clock reads and accumulator add — no allocation
// (same contract as the nil Recorder and disabled Trace).
func TestProfPhaseDisabledDoesNotAllocate(t *testing.T) {
	SetProfLabels(false)
	var r Run
	if allocs := testing.AllocsPerRun(200, func() {
		r.Phase(CatFastLSA, SpanGridFill).End(Tags{Rows: 1, Cols: 1})
	}); allocs != 0 {
		t.Errorf("zero-handle Phase/End allocates %v per call, want 0", allocs)
	}
}

// With labels off the handle's Prof context is never installed: the
// goroutine keeps whatever labels it had, before and after the bracket.
func TestProfPhaseDisabledContextFallback(t *testing.T) {
	SetProfLabels(false)
	base := pprof.WithLabels(context.Background(), pprof.Labels("job_id", "j1"))
	before := currentLabels(t)
	ph := Run{Prof: base}.Phase(CatWFA, SpanWFABi)
	if got := currentLabels(t); got != before {
		t.Errorf("labels-off phase changed goroutine labels %q -> %q", before, got)
	}
	ph.End(Tags{})
	if got := currentLabels(t); got != before {
		t.Errorf("labels-off End changed goroutine labels %q -> %q", before, got)
	}
}

func TestProfPhaseSetsLabels(t *testing.T) {
	SetProfLabels(true)
	defer SetProfLabels(false)

	base := pprof.WithLabels(context.Background(), pprof.Labels("job_id", "j1"))
	pprof.SetGoroutineLabels(base)
	defer pprof.SetGoroutineLabels(context.Background())

	ph := Run{Prof: base}.Phase(CatFastLSA, SpanGridFill)
	got := currentLabels(t)
	for _, want := range []string{`"backend":"fastlsa"`, `"phase":"grid-fill"`, `"job_id":"j1"`} {
		if !strings.Contains(got, want) {
			t.Errorf("labels inside the phase = %s, want %s", got, want)
		}
	}
	ph.End(Tags{})
	if got := currentLabels(t); got != `{"job_id":"j1"}` {
		t.Errorf("labels after End = %s, want the base context's {\"job_id\":\"j1\"}", got)
	}
}

// A nested sub-run (BiWFA base cases, search reconstructions) opens no
// phase: the goroutine keeps the outer phase's labels, the accumulator does
// not count the inner time twice, and the outer End restores the base.
func TestProfPhaseNestedRestore(t *testing.T) {
	SetProfLabels(true)
	defer SetProfLabels(false)
	defer pprof.SetGoroutineLabels(context.Background())

	fillBefore := phaseSeconds(CatWFA, SpanWFAFill)
	outer := Run{}.Phase(CatWFA, SpanWFABi)
	inner := Nested().Phase(CatWFA, SpanWFAFill)
	if got := currentLabels(t); !strings.Contains(got, `"phase":"wfa-biwfa"`) {
		t.Errorf("labels inside the nested phase = %s, want the outer wfa-biwfa", got)
	}
	time.Sleep(time.Millisecond)
	inner.End(Tags{})
	if got := currentLabels(t); !strings.Contains(got, `"phase":"wfa-biwfa"`) {
		t.Errorf("labels after the nested End = %s, want the outer wfa-biwfa", got)
	}
	outer.End(Tags{})
	if got := currentLabels(t); got != "" {
		t.Errorf("labels after the outer End = %s, want none", got)
	}
	if after := phaseSeconds(CatWFA, SpanWFAFill); after != fillBefore {
		t.Errorf("nested phase accumulated %v s, want 0", after-fillBefore)
	}
}

// The phase-seconds table counts every bracket, labels on or off.
func TestPhaseTimesAccumulate(t *testing.T) {
	for _, labels := range []bool{false, true} {
		SetProfLabels(labels)
		before := phaseSeconds(CatSearch, SpanSearchVerify)
		ph := Run{}.Phase(CatSearch, SpanSearchVerify)
		time.Sleep(2 * time.Millisecond)
		ph.End(Tags{})
		if d := phaseSeconds(CatSearch, SpanSearchVerify) - before; d < 0.001 {
			t.Errorf("labels=%v: accumulated %v s, want >= 1ms", labels, d)
		}
	}
	SetProfLabels(false)
	pprof.SetGoroutineLabels(context.Background())
}

// One bracket feeds the span and the recorder event from the same clock
// reads: identical durations, the event stamped at the span's end.
func TestPhaseFeedsSpanAndEvent(t *testing.T) {
	r := Run{Trace: NewTrace(4), Recorder: NewRecorder(4)}
	ph := r.Phase(CatFastLSA, SpanTraceback)
	time.Sleep(time.Millisecond)
	ph.End(Tags{Rows: 3, Cols: 4})

	spans := r.Trace.Spans()
	evs := r.Recorder.Snapshot().Events
	if len(spans) != 1 || len(evs) != 1 {
		t.Fatalf("got %d spans and %d events, want one of each", len(spans), len(evs))
	}
	sp, ev := spans[0], evs[0]
	if sp.Name != SpanTraceback || sp.Cat != CatFastLSA || sp.Tags != (Tags{Rows: 3, Cols: 4}) {
		t.Errorf("span = %+v", sp)
	}
	if ev.Kind != EvPhase || ev.Detail != SpanTraceback || ev.Extra != CatFastLSA {
		t.Errorf("event = %+v", ev)
	}
	if sp.Dur != ev.Duration || sp.Dur < time.Millisecond {
		t.Errorf("span %v and event %v durations differ (or < 1ms)", sp.Dur, ev.Duration)
	}
}

// A zero Phase (what a nested handle returns) is a no-op.
func TestZeroPhaseEndIsNoOp(t *testing.T) {
	before := PhaseSeconds()
	Phase{}.End(Tags{})
	for i, p := range PhaseSeconds() {
		if p != before[i] {
			t.Errorf("zero Phase moved %s/%s: %v -> %v", p.Backend, p.Phase, before[i].Seconds, p.Seconds)
		}
	}
}
