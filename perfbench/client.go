package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation. Every duration runs from the operation's
// start — for the open loop, the moment it was due, so a stalled generator
// or a busy connection counts against the server.
type sample struct {
	accept time.Duration // response status line of the first request
	first  time.Duration // first hit line (search) or first result byte
	total  time.Duration // operation complete
	late   time.Duration // open loop: dispatch minus due time
	ok     bool
	hit    bool // search: at least one hit line arrived
	bytes  int64
	cells  float64
	err    string
	// tornViews counts job polls that reported success without a result.
	tornViews int
}

// client drives the server over at most conns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
	w    *workload
}

func newClient(base string, conns int, w *workload) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}, base: base, w: w}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body, reporting when the status
// line and the first body byte arrived relative to start.
func (c *client) do(ctx context.Context, method, path string, body []byte, reqID string, start time.Time) (status int, data []byte, accept, first time.Duration, err error) {
	var firstAt time.Time
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { firstAt = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	defer resp.Body.Close()
	accept = time.Since(start)
	data, err = io.ReadAll(resp.Body)
	if !firstAt.IsZero() {
		first = firstAt.Sub(start)
	}
	return resp.StatusCode, data, accept, first, err
}

// alignResult is the part of the align response the benchmark checks.
type alignResult struct {
	Score int64  `json:"score"`
	CIGAR string `json:"cigar"`
}

// align runs one synchronous POST /v1/align.
func (c *client) align(ctx context.Context, i int, reqID string) sample {
	p := c.w.pairs[i%len(c.w.pairs)]
	start := time.Now()
	s := sample{cells: c.w.nominalCells(i)}
	status, data, accept, first, err := c.do(ctx, http.MethodPost, "/v1/align", p.body, reqID, start)
	s.total = time.Since(start)
	s.accept, s.first, s.bytes = accept, first, int64(len(data))
	if err != nil {
		s.err = err.Error()
		return s
	}
	if status != http.StatusOK {
		s.err = fmt.Sprintf("status %d: %.200s", status, data)
		return s
	}
	var res alignResult
	if err := json.Unmarshal(data, &res); err != nil {
		s.err = "decode: " + err.Error()
		return s
	}
	if err := checkAlign(p, c.w, res.Score, res.CIGAR); err != nil {
		s.err = err.Error()
		return s
	}
	s.ok = true
	return s
}

// streamEvent is one NDJSON line of GET /v1/search.
type streamEvent struct {
	Type  string   `json:"type"`
	Hits  []hitKey `json:"hits"`
	Error string   `json:"error"`
}

// search runs one streaming GET /v1/search; it completes at the summary
// line.
func (c *client) search(ctx context.Context, i int, reqID string) sample {
	q := c.w.queries[i%len(c.w.queries)]
	start := time.Now()
	s := sample{cells: c.w.nominalCells(i)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+q.path, nil)
	if err != nil {
		s.err = err.Error()
		return s
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err.Error()
		return s
	}
	defer resp.Body.Close()
	s.accept = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		s.err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, data)
		return s
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		s.bytes += int64(len(line))
		if len(line) > 0 {
			var ev streamEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				s.err = "decode: " + jerr.Error()
				return s
			}
			switch ev.Type {
			case "hit":
				if !s.hit {
					s.hit, s.first = true, time.Since(start)
				}
			case "error":
				s.err = "stream error: " + ev.Error
				return s
			case "summary":
				s.total = time.Since(start)
				if got := sortHits(ev.Hits); !sameHits(got, q.ref) {
					s.err = fmt.Sprintf("hits %v, index-free reference %v", got, q.ref)
					return s
				}
				s.ok = true
				_, _ = io.Copy(io.Discard, rd)
				return s
			}
		}
		if err != nil {
			s.err = "stream ended before the summary line: " + err.Error()
			return s
		}
	}
}

// jobView is the part of the job view the benchmark reads.
type jobView struct {
	ID        string       `json:"id"`
	State     string       `json:"state"`
	RequestID string       `json:"requestId"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started"`
	Finished  *time.Time   `json:"finished"`
	Error     string       `json:"error"`
	Result    *alignResult `json:"result"`
}

func terminal(state string) bool {
	return state == "succeeded" || state == "failed" || state == "cancelled"
}

// pollEvery is the job poll interval: the latency resolution of
// jobs-durable.
const pollEvery = 2 * time.Millisecond

// maxTornViews bounds the re-polls of a job that reports success without a
// result. The race in GET /v1/jobs/{id} resolves within one poll, but a job
// that aged out of the engine's retained results stays that way for good.
const maxTornViews = 50

// job submits one async POST /v1/jobs and polls it to a terminal state.
// start is the moment the operation was due.
func (c *client) job(ctx context.Context, i int, reqID string, start time.Time) sample {
	p := c.w.pairs[i%len(c.w.pairs)]
	s := sample{cells: c.w.nominalCells(i), late: time.Since(start)}
	body := append(append([]byte(`{"type":"align","align":`), p.body...), '}')
	status, data, _, _, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, reqID, start)
	s.accept = time.Since(start)
	s.bytes += int64(len(data))
	if err != nil {
		s.err = err.Error()
		return s
	}
	if status != http.StatusAccepted {
		s.err = fmt.Sprintf("submit status %d: %.200s", status, data)
		return s
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		s.err = "decode: " + err.Error()
		return s
	}
	// The first poll waits a fraction of pollEvery that runs through [0, 1)
	// over the jobs (a golden-ratio sequence). With the same phase for every
	// job, latencies would fall on a comb of whole poll steps, and the median
	// and tail would jump by a step whenever they sat on a tooth's edge.
	wait := time.Duration(math.Mod(float64(i)*0.6180339887498949, 1) * float64(pollEvery))
	for ; ; wait = pollEvery {
		time.Sleep(wait)
		status, data, _, first, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil, "", start)
		s.bytes += int64(len(data))
		if err != nil {
			s.err = err.Error()
			return s
		}
		if status != http.StatusOK {
			s.err = fmt.Sprintf("poll status %d: %.200s", status, data)
			return s
		}
		if err := json.Unmarshal(data, &v); err != nil {
			s.err = "decode: " + err.Error()
			return s
		}
		// GET /v1/jobs/{id} reads a job's result before its state, so a poll
		// racing completion can report "succeeded" without the result; such
		// a view is polled again, a bounded number of times.
		if v.State == "succeeded" && v.Result == nil {
			s.tornViews++
			if s.tornViews > maxTornViews {
				s.err = fmt.Sprintf("job %s: succeeded without a result in %d polls", v.ID, s.tornViews)
				return s
			}
			continue
		}
		if terminal(v.State) {
			s.total, s.first = time.Since(start), first
			break
		}
	}
	if v.State != "succeeded" {
		s.err = fmt.Sprintf("job %s %s: %s", v.ID, v.State, v.Error)
		return s
	}
	if err := checkAlign(p, c.w, v.Result.Score, v.Result.CIGAR); err != nil {
		s.err = err.Error()
		return s
	}
	s.ok = true
	return s
}

// op runs schedule item i of the workload (closed loop: due now).
func (c *client) op(ctx context.Context, i int, reqID string) sample {
	switch c.w.kind {
	case kindSearch:
		return c.search(ctx, i, reqID)
	case kindJob:
		return c.job(ctx, i, reqID, time.Now())
	default:
		return c.align(ctx, i, reqID)
	}
}

// closedLoop runs clients concurrent callers, each sending its next item
// only after the previous one completed, until the deadline passes. Items
// are taken in schedule order from a shared counter starting at from.
func closedLoop(ctx context.Context, c *client, clients, from int, deadline time.Time) []sample {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				s := c.op(ctx, i, fmt.Sprintf("pb-%d", i))
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop dispatches one job every 1/rate seconds regardless of how the
// earlier ones are doing, until the deadline, and waits for all of them.
func openLoop(ctx context.Context, c *client, rate float64, start, deadline time.Time) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			s := c.job(ctx, i, fmt.Sprintf("pb-%d", i), due)
			mu.Lock()
			out = append(out, s)
			mu.Unlock()
		}(i, due)
	}
	wg.Wait()
	return out
}
