package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fastlsa"
	"fastlsa/internal/journal"
	"fastlsa/internal/obs"
)

// jobRequest is the POST /v1/jobs body: one alignment task submitted
// asynchronously. Exactly one of Align/Search must match Type.
type jobRequest struct {
	// Type selects the task: "align" or "search".
	Type string `json:"type"`
	// Priority orders the queue (higher first; FIFO among equals).
	Priority int `json:"priority"`
	// TimeoutSec, when > 0, bounds the job's lifetime (queue wait plus
	// execution); expiry cancels it.
	TimeoutSec float64 `json:"timeoutSec"`
	// Retry, when set with maxAttempts > 1, re-runs the job after transient
	// failures (worker panics, injected faults, budget races) with
	// exponential backoff. Invalid input and cancellation never retry.
	Retry *retrySpec `json:"retry,omitempty"`

	Align  *alignRequest  `json:"align,omitempty"`
	Search *searchRequest `json:"search,omitempty"`
}

// retrySpec is the JSON shape of a retry policy on job and batch
// submissions. The retry-on classification is fixed to the service's
// transient-fault classifier (fastlsa.RetryTransient).
type retrySpec struct {
	// MaxAttempts caps total executions, first attempt included.
	MaxAttempts int `json:"maxAttempts"`
	// BackoffMs is the base backoff before the first retry (0 selects the
	// engine default, 10ms); it doubles per retry with jitter.
	BackoffMs int64 `json:"backoffMs"`
	// MaxBackoffMs caps the backoff growth (0 selects 2s).
	MaxBackoffMs int64 `json:"maxBackoffMs"`
}

func (r *retrySpec) policy() fastlsa.RetryPolicy {
	if r == nil {
		return fastlsa.RetryPolicy{}
	}
	return fastlsa.RetryPolicy{
		MaxAttempts: r.MaxAttempts,
		BaseDelay:   time.Duration(r.BackoffMs) * time.Millisecond,
		MaxDelay:    time.Duration(r.MaxBackoffMs) * time.Millisecond,
		RetryOn:     fastlsa.RetryTransient,
	}
}

// jobView is the JSON shape of a job for the async API.
type jobView struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	// RequestID ties the job to the submitting request's X-Request-ID for
	// log correlation.
	RequestID string     `json:"requestId,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Attempts counts executions started so far (> 1 means the job retried).
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Recovered marks a job re-enqueued from the durable journal after a
	// restart (docs/DURABILITY.md).
	Recovered bool `json:"recovered,omitempty"`
	// Result carries the endpoint-shaped response once the job succeeded.
	Result any `json:"result,omitempty"`
	// ResultEvicted marks a succeeded job whose result payload is no longer
	// held: it aged past the retained-results bound (-max-results), or the
	// job finished before a restart and is served from the journal.
	ResultEvicted bool `json:"resultEvicted,omitempty"`
	// Events is the job's flight-recorder timeline, included when the view
	// was requested with ?events=1 (GET /v1/jobs/{id}).
	Events *fastlsa.RecorderSnapshot `json:"events,omitempty"`
}

func viewOf(info fastlsa.JobInfo, result any) jobView {
	v := jobView{
		ID:        info.ID,
		Kind:      info.Kind,
		Priority:  info.Priority,
		State:     info.State.String(),
		RequestID: info.RequestID,
		Submitted: info.Submitted,
		Attempts:  info.Attempts,
		Error:     info.Err,
		Recovered: info.Recovered,
		Result:    result,
	}
	if !info.Started.IsZero() {
		v.Started = &info.Started
	}
	if !info.Finished.IsZero() {
		v.Finished = &info.Finished
	}
	return v
}

// handleJobSubmit accepts a job and replies 202 with its queued view. The
// job's lifetime is not tied to this request: poll GET /v1/jobs/{id} for the
// outcome, DELETE it to cancel. With the durable journal enabled the job is
// journalled before submission and an Idempotency-Key header makes retries
// of the same submission land on the existing job (docs/DURABILITY.md).
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error": "server is recovering journalled jobs", "phase": "recovering",
		})
		return
	}
	var req jobRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" && s.journal == nil {
		writeErr(w, http.StatusBadRequest,
			"Idempotency-Key requires the durable journal (start the server with -data-dir)")
		return
	}
	if idemKey != "" {
		if id := s.idemLookup(idemKey); id != "" {
			s.writeExistingJob(w, id)
			return
		}
	}
	// Every async job gets a flight recorder: the engine logs the lifecycle
	// (admission, attempt starts, retries, completion) and the task builders
	// thread it into the run so routing decisions and solver phases land on
	// the same timeline. Snapshot it via GET /v1/jobs/{id}/events or ?events=1.
	rec := fastlsa.NewRecorder(0)
	if req.Align != nil && r.URL.Query().Get("trace") == "1" {
		req.Align.Trace = true
	}
	task, kind, err := s.buildJobTask(req, rec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	jo := fastlsa.JobOptions{
		Priority:  req.Priority,
		Timeout:   time.Duration(req.TimeoutSec * float64(time.Second)),
		RequestID: obs.RequestID(r.Context()),
		Retry:     req.Retry.policy(),
		Recorder:  rec,
	}
	if s.journal != nil {
		// Durable path: mint the id, register it, and journal the accepted
		// record BEFORE the engine can emit any event for the job — a crash
		// after admission must find the accepted record (else the engine's
		// started/terminal appends would be dropped as non-durable and the
		// job would run twice).
		id := s.newDurableID()
		if idemKey != "" {
			if winner, bound := s.idemBind(idemKey, id); !bound {
				s.writeExistingJob(w, winner)
				return
			}
		}
		s.markDurable(id)
		if err := s.journalAccepted(id, kind, idemKey, req); err != nil {
			s.writeTaskErr(w, fmt.Errorf("journal: %w", err))
			return
		}
		jo.ID = id
	}
	j, err := s.eng.SubmitFunc(kind, task, jo)
	if err != nil {
		if jo.ID != "" {
			// Accepted record exists but the job never entered the queue:
			// journal a terminal failure so the next boot cannot resurrect it.
			_ = s.journal.Append(journal.Record{
				Type: journal.TypeTerminal, JobID: jo.ID, At: time.Now(),
				State: "failed", Error: err.Error(),
			})
		}
		s.writeTaskErr(w, err)
		return
	}
	s.watchJob(j)
	writeJSON(w, http.StatusAccepted, viewOf(j.Info(), nil))
}

// writeExistingJob serves an Idempotency-Key hit: the engine's live or
// retained view when available, the journalled terminal view for jobs that
// finished before a crash, 404 when the id has been evicted everywhere.
func (s *server) writeExistingJob(w http.ResponseWriter, id string) {
	if j, err := s.eng.Job(id); err == nil {
		writeJSON(w, http.StatusAccepted, viewOf(j.Info(), nil))
		return
	}
	if v, ok := s.journalledView(id); ok {
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	writeErr(w, http.StatusNotFound, "idempotency key maps to unknown job %s", id)
}

// handleJobGet reports one job, including its result once succeeded.
// ?events=1 opts the flight-recorder timeline into the view. A job the
// engine no longer knows (terminal before a crash, not resubmitted) is
// served from the journal's aggregate.
func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.eng.Job(r.PathValue("id"))
	if err != nil {
		if v, ok := s.journalledView(r.PathValue("id")); ok {
			writeJSON(w, http.StatusOK, v)
			return
		}
		writeErr(w, jobLookupStatus(err), "%v", err)
		return
	}
	info, result := j.View()
	v := viewOf(info, result)
	v.ResultEvicted = info.State == fastlsa.JobSucceeded && result == nil
	if r.URL.Query().Get("events") == "1" && j.HasRecorder() {
		snap := j.Events()
		v.Events = &snap
	}
	writeJSON(w, http.StatusOK, v)
}

// handleJobCancel cancels a job; polling its state shows the effect.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.eng.Cancel(id); err != nil {
		writeErr(w, jobLookupStatus(err), "%v", err)
		return
	}
	j, err := s.eng.Job(id)
	if err != nil {
		writeErr(w, jobLookupStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j.Info(), nil))
}

// handleJobList reports every retained job, newest first (no results).
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	infos := s.eng.List()
	out := make([]jobView, len(infos))
	for i, info := range infos {
		out[i] = viewOf(info, nil)
	}
	writeJSON(w, http.StatusOK, out)
}

// statsView is the GET /v1/stats reply: the engine's job counters at the top
// level (flat, for compatibility) plus the service-wide alignment counters
// under "alignment".
type statsView struct {
	fastlsa.EngineStats
	Alignment fastlsa.CounterSnapshot `json:"alignment"`
}

// handleStats reports the engine and alignment counters.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsView{
		EngineStats: s.eng.Stats(),
		Alignment:   s.metrics.Snapshot(),
	})
}

func jobLookupStatus(err error) int {
	if errors.Is(err, fastlsa.ErrJobNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// batchRequest is the POST /v1/batch body: many pairs aligned under shared
// options. The embedded alignRequest supplies the options (its A/B fields
// are ignored); admission is atomic — either every pair is queued or the
// whole batch is rejected with 503.
type batchRequest struct {
	alignRequest
	Pairs []struct {
		A   string `json:"a"`
		B   string `json:"b"`
		AID string `json:"aId"`
		BID string `json:"bId"`
	} `json:"pairs"`
	// TimeoutSec, when > 0, bounds each pair's lifetime individually.
	TimeoutSec float64 `json:"timeoutSec"`
	// Retry applies per unit: a pair whose attempt hits a transient fault
	// re-queues without failing the batch.
	Retry *retrySpec `json:"retry,omitempty"`
}

// batchResponse is the POST /v1/batch reply: per-pair outcomes, indexed as
// submitted.
type batchResponse struct {
	BatchID string      `json:"batchId"`
	Units   []batchUnit `json:"units"`
}

type batchUnit struct {
	Index  int    `json:"index"`
	Error  string `json:"error,omitempty"`
	Result any    `json:"result,omitempty"`
}

// handleBatch runs a bounded batch synchronously: all pairs are admitted
// atomically, fan out over the worker pool, and the reply carries every
// outcome. A client disconnect cancels the unfinished remainder.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Pairs) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest, "batch exceeds the %d-pair limit", s.cfg.MaxBatch)
		return
	}
	tasks := make([]func(ctx context.Context) (any, error), len(req.Pairs))
	for i, p := range req.Pairs {
		unit := req.alignRequest
		unit.A, unit.B = p.A, p.B
		unit.AID = orDefault(p.AID, fmt.Sprintf("a%d", i))
		unit.BID = orDefault(p.BID, fmt.Sprintf("b%d", i))
		// Batch units share no recorder: a shared timeline would interleave
		// the pairs' events beyond use.
		task, err := s.alignTask(unit, nil)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "pair %d: %v", i, err)
			return
		}
		tasks[i] = task
	}
	b, err := s.eng.SubmitBatchFunc("batch-align", tasks, fastlsa.JobOptions{
		Timeout:   time.Duration(req.TimeoutSec * float64(time.Second)),
		Context:   r.Context(),
		RequestID: obs.RequestID(r.Context()),
		Retry:     req.Retry.policy(),
	})
	if err != nil {
		s.writeTaskErr(w, err)
		return
	}
	s.batchSizes.Observe(float64(b.Size()))
	results, err := b.Wait(r.Context())
	if err != nil {
		b.Cancel()
		s.writeTaskErr(w, err)
		return
	}
	resp := batchResponse{BatchID: b.ID(), Units: make([]batchUnit, len(results))}
	for i, res := range results {
		u := batchUnit{Index: i, Result: res.Result}
		if res.Err != nil {
			u.Error = res.Err.Error()
			u.Result = nil
		}
		resp.Units[i] = u
	}
	writeJSON(w, http.StatusOK, resp)
}
