package obs

// CPU attribution and runtime health: the process-wide switch for the pprof
// labels Run.Phase attaches around solver phases (the engine worker adds
// job_id/job_kind on top), so a live /debug/pprof/profile attributes samples
// to (job_id, backend, phase); and ReadRuntime, the per-scrape process
// sample behind the server's fastlsa_go_* families.
//
// Labelling is off by default — the library default — and then a phase
// bracket costs one atomic load for it and allocates nothing. Label brackets
// are applied at phase granularity (a handful per alignment), never inside
// tile or cell loops.

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

var profLabelsOn atomic.Bool

// SetProfLabels switches pprof label attribution on or off process-wide.
// Off by default. The phase-seconds table does not depend on it.
func SetProfLabels(on bool) { profLabelsOn.Store(on) }

// ProfLabelsEnabled reports whether label attribution is on.
func ProfLabelsEnabled() bool { return profLabelsOn.Load() }

// runtime/metrics sample names read by RuntimeSnapshot. Unknown names (older
// runtimes) read as zero.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
}

// RuntimeSnapshot is one point-in-time process sample.
type RuntimeSnapshot struct {
	At             time.Time
	Goroutines     int64
	HeapBytes      uint64
	GCCycles       uint64
	GCPauseSeconds float64
}

// ReadRuntime samples the runtime: goroutines, live heap bytes and GC cycle
// count via runtime/metrics, plus the cumulative GC pause total. Cheap
// enough to call per scrape.
func ReadRuntime() RuntimeSnapshot {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	snap := RuntimeSnapshot{At: time.Now()}
	for i, s := range samples {
		switch runtimeSampleNames[i] {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.Goroutines = int64(s.Value.Uint64())
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.HeapBytes = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.GCCycles = s.Value.Uint64()
			}
		}
	}
	if snap.Goroutines == 0 {
		snap.Goroutines = int64(runtime.NumGoroutine())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.GCPauseSeconds = float64(ms.PauseTotalNs) / float64(time.Second)
	if snap.HeapBytes == 0 {
		snap.HeapBytes = ms.HeapAlloc
	}
	return snap
}
