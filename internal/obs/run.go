package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Run is the instrumentation handle of one solver run: the single field the
// solver, WFA, search and backend options carry instead of separate trace,
// recorder and profiling hooks. Every solver phase is bracketed once through
// it (Phase … End), and that one bracket, with one clock read at each end,
// feeds all four outputs:
//
//   - a span in Trace (nil = no spans);
//   - an EvPhase event in Recorder (nil = no events);
//   - {backend, phase} pprof labels while SetProfLabels is on, merged into
//     Prof (the labelled base context threaded from the engine worker; nil
//     means no outer labels);
//   - the process-wide phase-seconds table behind PhaseSeconds, fed on every
//     bracket regardless of the other three.
//
// The zero value records no spans or events and, with labels off, costs two
// clock reads and one atomic add per phase (allocation-free; guarded in
// run_test.go). Passed by value.
type Run struct {
	Trace    *Trace
	Recorder *Recorder
	Prof     context.Context

	nested bool
}

// Nested returns the handle of a sub-run executed inside an open phase of
// another run (BiWFA's base-case sub-alignments, a search's reconstruction
// runs). It records nothing and opens no phases: the goroutine keeps the
// enclosing phase's labels, and the enclosing phase's time is counted once.
func Nested() Run { return Run{nested: true} }

// phaseTable lists every (backend, phase) pair the solvers bracket; its index
// is the slot of the pair's wall-time accumulator. The backend doubles as the
// span category (CatFastLSA, CatWFA, CatSearch).
var phaseTable = [...]struct{ backend, name string }{
	{CatFastLSA, SpanGridFill},
	{CatFastLSA, SpanBaseCase},
	{CatFastLSA, SpanTraceback},
	{CatWFA, SpanWFAFill},
	{CatWFA, SpanTraceback},
	{CatWFA, SpanWFABi},
	{CatSearch, SpanSearchFilter},
	{CatSearch, SpanSearchVerify},
	{CatSearch, SpanSearchReconstruct},
}

// phaseNanos accumulates wall nanoseconds per phaseTable slot.
var phaseNanos [len(phaseTable)]atomic.Int64

// Phase is one open phase bracket, returned by Run.Phase and closed by End
// on the same goroutine. The zero value (a nested run's) is a no-op.
type Phase struct {
	run           Run
	backend, name string
	slot          int // phaseTable index; -1 for a pair outside the table
	start         time.Time
	prev          context.Context // labels to restore; nil when none were set
}

// Phase opens the named phase of backend: it attaches the {backend, phase}
// pprof labels when labelling is on and reads the start time. Goroutines
// spawned before End (parallel fill workers, verify workers) inherit the
// labels. Pairs outside phaseTable still get spans, events and labels but
// no accumulator.
func (r Run) Phase(backend, name string) Phase {
	if r.nested {
		return Phase{}
	}
	p := Phase{run: r, backend: backend, name: name, slot: -1}
	for i, e := range phaseTable {
		if e.backend == backend && e.name == name {
			p.slot = i
			break
		}
	}
	if profLabelsOn.Load() {
		p.prev = r.Prof
		if p.prev == nil {
			p.prev = context.Background()
		}
		pprof.SetGoroutineLabels(pprof.WithLabels(p.prev, pprof.Labels("backend", backend, "phase", name)))
	}
	p.start = time.Now()
	return p
}

// End closes the phase: one clock read stamps the span, the recorder event
// and the accumulator, and the labels active before Phase are restored.
func (p Phase) End(tags Tags) {
	if p.start.IsZero() {
		return
	}
	now := time.Now()
	d := now.Sub(p.start)
	if p.prev != nil {
		pprof.SetGoroutineLabels(p.prev)
	}
	if p.slot >= 0 {
		phaseNanos[p.slot].Add(int64(d))
	}
	if t := p.run.Trace; t != nil {
		t.add(Span{Name: p.name, Cat: p.backend, Start: p.start.Sub(t.epoch), Dur: d, Tags: tags})
	}
	p.run.Recorder.addAt(Event{Kind: EvPhase, Detail: p.name, Extra: p.backend, Duration: d}, now)
}

// PhaseTotal is one row of PhaseSeconds.
type PhaseTotal struct {
	Backend, Phase string
	Seconds        float64
}

// PhaseSeconds snapshots the cumulative wall seconds spent inside each
// (backend, phase) bracket since process start, in a fixed order. Totals
// only grow; phases of one run never overlap, so one run's deltas sum to at
// most its wall time (concurrent runs add up, as wall time does across
// workers).
func PhaseSeconds() []PhaseTotal {
	out := make([]PhaseTotal, len(phaseTable))
	for i, e := range phaseTable {
		out[i] = PhaseTotal{Backend: e.backend, Phase: e.name, Seconds: time.Duration(phaseNanos[i].Load()).Seconds()}
	}
	return out
}
