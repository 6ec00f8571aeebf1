package main

// Introspection surface: the per-job flight recorder endpoint and the
// server-wide incident ring. Together with /metrics and ?trace=1 these form
// the third observability tier (docs/OBSERVABILITY.md): metrics say *that*
// something is wrong, traces say *where* one request spent its time, and the
// flight recorder + incident ring say *what happened* to a specific job
// after the fact.

import (
	"context"
	"net/http"
	"sync"
	"time"

	"fastlsa"
	"fastlsa/internal/obs"
)

// defaultIncidents bounds the incident ring.
const defaultIncidents = 64

// incident is one entry of the server-wide incident ring: a 5xx response
// (overload sheds included) or a failed job, captured with enough context —
// request id, attempts, the job's flight-recorder timeline — to debug it
// after the fact without having had a profiler attached.
type incident struct {
	At   time.Time `json:"at"`
	Kind string    `json:"kind"` // "http-5xx" or "job-failed"
	// Route/Status/DurationMs describe an http-5xx incident.
	Route      string  `json:"route,omitempty"`
	Status     int     `json:"status,omitempty"`
	DurationMs float64 `json:"durationMs,omitempty"`
	// JobID/JobKind/Attempts/Error describe a job-failed incident (a panic or
	// an exhausted retry budget surfaces here via the job's final error).
	JobID     string `json:"jobId,omitempty"`
	JobKind   string `json:"jobKind,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	Error     string `json:"error,omitempty"`
	RequestID string `json:"requestId,omitempty"`
	// Events is the failed job's flight-recorder timeline, when it had one.
	Events *obs.RecorderSnapshot `json:"events,omitempty"`
}

// incidentRing keeps the newest incidents in a fixed ring.
type incidentRing struct {
	mu   sync.Mutex
	ring []incident
	pos  int
	full bool
}

func newIncidentRing(capacity int) *incidentRing {
	if capacity <= 0 {
		capacity = defaultIncidents
	}
	return &incidentRing{ring: make([]incident, capacity)}
}

func (ir *incidentRing) add(inc incident) {
	ir.mu.Lock()
	ir.ring[ir.pos] = inc
	ir.pos = (ir.pos + 1) % len(ir.ring)
	if ir.pos == 0 {
		ir.full = true
	}
	ir.mu.Unlock()
}

// snapshot returns the retained incidents, newest first.
func (ir *incidentRing) snapshot() []incident {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	n := ir.pos
	if ir.full {
		n = len(ir.ring)
	}
	out := make([]incident, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, ir.ring[(ir.pos-i+len(ir.ring))%len(ir.ring)])
	}
	return out
}

// observeRequest is the completion hook behind every route (wired through
// obs.MiddlewareObserved): it captures 5xx responses — overload sheds
// included — into the incident ring.
func (s *server) observeRequest(sm obs.RequestSample) {
	if sm.Status >= 500 {
		s.incidents.add(incident{
			At: time.Now(), Kind: "http-5xx",
			Route: sm.Route, Status: sm.Status,
			DurationMs: float64(sm.Duration) / float64(time.Millisecond),
			RequestID:  sm.RequestID,
		})
	}
}

// watchJob records a job-failed incident once j reaches a terminal state.
// The background wait is safe: shutdown cancels every live job, so the
// goroutine always exits.
func (s *server) watchJob(j *fastlsa.Job) {
	go func() {
		_, err := j.Wait(context.Background())
		info := j.Info()
		// A job that failed on its client's input (a 4xx) is no fault of
		// the server's, and must not push real faults out of the ring.
		if info.State != fastlsa.JobFailed || errStatus(err) < http.StatusInternalServerError {
			return
		}
		inc := incident{
			At: time.Now(), Kind: "job-failed",
			JobID: info.ID, JobKind: info.Kind,
			Attempts: info.Attempts, Error: info.Err,
			RequestID: info.RequestID,
		}
		if j.HasRecorder() {
			snap := j.Events()
			inc.Events = &snap
		}
		s.incidents.add(inc)
	}()
}

// handleIncidents serves the incident ring, newest first.
func (s *server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"incidents": s.incidents.snapshot()})
}

// jobEventsView is the GET /v1/jobs/{id}/events reply: the job's flight-
// recorder timeline plus how much of it was dropped under the retention
// bound.
type jobEventsView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	obs.RecorderSnapshot
}

// handleJobEvents serves one job's flight-recorder timeline.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.eng.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, jobLookupStatus(err), "%v", err)
		return
	}
	if !j.HasRecorder() {
		writeErr(w, http.StatusNotFound,
			"job %s has no flight recorder (evicted, or submitted without one)", r.PathValue("id"))
		return
	}
	info := j.Info()
	writeJSON(w, http.StatusOK, jobEventsView{
		ID: info.ID, State: info.State.String(),
		RecorderSnapshot: j.Events(),
	})
}

// refreshScrapeMetrics recomputes the scrape-time families /metrics cannot
// derive from closures alone: the per-(backend, phase) CPU-attribution
// counters (diffed from the obs accumulator so the exported series stays
// monotonic) and the cached runtime snapshot behind the fastlsa_go_*
// families. The wrapped /metrics handler calls it before every exposition.
func (s *server) refreshScrapeMetrics() {
	s.scrapeMu.Lock()
	for i, p := range obs.PhaseSeconds() {
		if d := p.Seconds - s.phaseSeen[i]; d > 0 {
			s.phaseSecs.With(p.Backend, p.Phase).Add(d)
			s.phaseSeen[i] = p.Seconds
		}
	}
	s.rtSnap = obs.ReadRuntime()
	s.scrapeMu.Unlock()
}

// runtimeStat reads one field of the cached runtime snapshot (refreshed by
// refreshScrapeMetrics just before each scrape).
func (s *server) runtimeStat(pick func(obs.RuntimeSnapshot) float64) func() float64 {
	return func() float64 {
		s.scrapeMu.Lock()
		defer s.scrapeMu.Unlock()
		return pick(s.rtSnap)
	}
}
