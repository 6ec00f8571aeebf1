package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastlsa"
	"fastlsa/internal/fault"
)

// siteDecode is the fault-injection point on request-body decoding: armed it
// rehearses malformed-input handling (the server must answer 400, never 500,
// and never leak a job submission for a body it could not parse).
var siteDecode = fault.NewSite("server.decode")

// decodeJSON decodes a request body, striking the server.decode injection
// point first. Every handler that reads a body routes through it.
func decodeJSON(r *http.Request, v any) error {
	if err := siteDecode.Hit(); err != nil {
		return err
	}
	return json.NewDecoder(r.Body).Decode(v)
}

// writeTaskErr maps a task/submission error to its HTTP response. 503s from
// overload (a full queue, an open breaker, a draining engine) carry a
// Retry-After header and a retryAfterMs JSON hint so well-behaved clients
// back off instead of hammering a saturated service; client disconnects
// (context.Canceled with the client gone) get no hint — nobody is listening.
func (s *server) writeTaskErr(w http.ResponseWriter, err error) {
	status := errStatus(err)
	if status == http.StatusServiceUnavailable &&
		(errors.Is(err, fastlsa.ErrQueueFull) || errors.Is(err, fastlsa.ErrEngineClosed)) {
		hint := s.retryAfterHint()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64((hint+time.Second-1)/time.Second)))
		writeJSON(w, status, apiError{Error: err.Error(), RetryAfterMs: hint.Milliseconds()})
		return
	}
	writeErr(w, status, "%v", err)
}

// retryAfterHint estimates how long a shed client should wait before
// retrying: the breaker's remaining cooldown when it is open, otherwise a
// queue-pressure guess (half a second per queued job), clamped to [1s, 10s].
func (s *server) retryAfterHint() time.Duration {
	hint := time.Second
	if rem := s.breaker.remaining(time.Now()); rem > hint {
		hint = rem
	}
	if queued := s.eng.Stats().Queued; queued > 0 {
		if d := time.Duration(queued) * 500 * time.Millisecond; d > hint {
			hint = d
		}
	}
	if hint > 10*time.Second {
		hint = 10 * time.Second
	}
	return hint
}

// beginDrain flips the readiness probe to failing. main calls it the moment
// shutdown starts, so load balancers stop routing new work while /healthz
// keeps answering 200 — the process is still alive and draining.
func (s *server) beginDrain() { s.draining.Store(true) }

// handleReadyz is the readiness probe: 200 while the server accepts work,
// 503 while startup journal replay is still re-enqueuing pre-crash jobs
// ({"phase": "recovering"}), 503 once draining. Liveness (/healthz) is
// deliberately separate — a recovering or draining server is not ready, but
// it is alive.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "recovering", "phase": "recovering",
		})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// breaker sheds synchronous requests when the p95 queue wait over a sliding
// window of job pickups crosses a threshold: under that much queueing a
// synchronous caller would mostly hold a connection open to receive an
// eventual timeout, so failing fast with Retry-After is kinder to both
// sides. Async submissions (/v1/jobs, /v1/batch) are not shed — their
// callers opted into queueing. The breaker stays open for a cooldown, then
// closes and re-measures against a fresh window.
type breaker struct {
	threshold time.Duration // <= 0 disables the queue-wait breaker
	cooldown  time.Duration

	mu        sync.Mutex
	window    []time.Duration // ring of recent queue waits
	n         int             // samples in window (<= len(window))
	idx       int             // next write position
	openUntil time.Time

	trips atomic.Int64
	shed  atomic.Int64
}

func newBreaker(threshold, cooldown time.Duration, window int) *breaker {
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if window <= 0 {
		window = 128
	}
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		window:    make([]time.Duration, window),
	}
}

// observe records one job pickup's queue wait and trips the breaker when the
// window's p95 crosses the threshold. The window resets on a trip so the
// post-cooldown verdict reflects post-trip traffic, not the overload that
// caused it.
func (b *breaker) observe(d time.Duration) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.window[b.idx] = d
	b.idx = (b.idx + 1) % len(b.window)
	if b.n < len(b.window) {
		b.n++
	}
	// Demand a quorum before judging: a handful of slow pickups right after
	// startup (or a reset) is not an overload signal.
	if b.n < 8 || b.n < len(b.window)/4 {
		return
	}
	if b.p95Locked() <= b.threshold {
		return
	}
	// The window resets on every unhealthy verdict — counted as a trip or
	// not — so the post-cooldown judgment only ever sees samples newer than
	// the last one, never the overload that caused it.
	b.n, b.idx = 0, 0
	now := time.Now()
	if now.Before(b.openUntil) {
		return // already open
	}
	b.openUntil = now.Add(b.cooldown)
	b.trips.Add(1)
}

// p95Locked computes the 95th-percentile queue wait of the current window.
func (b *breaker) p95Locked() time.Duration {
	samples := make([]time.Duration, b.n)
	if b.n < len(b.window) {
		copy(samples, b.window[:b.n])
	} else {
		copy(samples, b.window)
	}
	sort.Slice(samples, func(i, k int) bool { return samples[i] < samples[k] })
	return samples[(b.n-1)*95/100]
}

// allow reports whether a synchronous request may proceed, counting sheds.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	open := now.Before(b.openUntil)
	b.mu.Unlock()
	if open {
		b.shed.Add(1)
	}
	return !open
}

// remaining reports how much cooldown is left (0 when closed).
func (b *breaker) remaining(now time.Time) time.Duration {
	if b.threshold <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if rem := b.openUntil.Sub(now); rem > 0 {
		return rem
	}
	return 0
}

// state reports 1 while open, 0 while closed (the /metrics gauge).
func (b *breaker) state() float64 {
	if b.remaining(time.Now()) > 0 {
		return 1
	}
	return 0
}
