package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fastlsa"
	"fastlsa/internal/fault"
	"fastlsa/internal/obs"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// eventsView mirrors the GET /v1/jobs/{id}/events reply.
type eventsView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	fastlsa.RecorderSnapshot
}

func getEvents(t *testing.T, url string) eventsView {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var v eventsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode events: %v", err)
	}
	return v
}

// pollAttempts polls a job view until it reports at least n attempts.
func pollAttempts(t *testing.T, url string, n int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		_, out := doJSON(t, http.MethodGet, url, "")
		if got, _ := out["attempts"].(float64); int(got) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached %d attempts", n)
}

// tightAlignBody builds an explicit (unplanned) FastLSA request with 8
// workers under a budget that holds the default base buffer and the k = 8
// grid caches but not the k = 16 grid that 8 workers would otherwise get:
// the unset K resolves to DefaultK, and the parallel fill runs inside the
// budget, which it never needs more of.
func tightAlignBody(t *testing.T) string {
	t.Helper()
	a, b := testutil.HomologousPair(1500, seq.DNA, 21)
	return fmt.Sprintf(
		`{"a": %q, "b": %q, "matrix": "dna", "gap": {"extend": -4}, "algorithm": "fastlsa", "workers": 8, "memoryBudget": 100000}`,
		a.String(), b.String())
}

// TestJobEventsTimelineRetriedDegraded is the acceptance scenario for the
// flight recorder: a retried job's whole story under a tight memory budget —
// admission, the injected first-attempt fault, the retry backoff, the
// solver phases and the completion — lands on one ordered timeline served
// by GET /v1/jobs/{id}/events.
func TestJobEventsTimelineRetriedDegraded(t *testing.T) {
	if err := fault.Arm("engine.worker:error", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	srv := httptest.NewServer(newServer(serverConfig{DefaultWorkers: 1, QueueDepth: 16}))
	defer srv.Close()

	body := fmt.Sprintf(`{
		"type": "align",
		"retry": {"maxAttempts": 100, "backoffMs": 1},
		"align": %s
	}`, tightAlignBody(t))
	resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	id := out["id"].(string)

	// Let the fault strike at least once, then clear it so a later attempt
	// succeeds.
	pollAttempts(t, srv.URL+"/v1/jobs/"+id, 2, 10*time.Second)
	fault.Disarm()
	done := pollJob(t, srv.URL+"/v1/jobs/"+id, "succeeded", 20*time.Second)
	attempts := int(done["attempts"].(float64))
	if attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", attempts)
	}

	ev := getEvents(t, srv.URL+"/v1/jobs/"+id+"/events")
	if ev.ID != id || ev.State != "succeeded" {
		t.Fatalf("events view id/state = %q/%q, want %q/succeeded", ev.ID, ev.State, id)
	}
	if ev.Total != len(ev.Events)+ev.Dropped {
		t.Fatalf("totalEvents %d != retained %d + dropped %d", ev.Total, len(ev.Events), ev.Dropped)
	}
	if len(ev.Events) == 0 {
		t.Fatal("empty timeline")
	}

	// The timeline brackets: admission first, terminal finish last.
	if first := ev.Events[0]; first.Kind != obs.EvAdmit || first.Detail != "align" {
		t.Errorf("events[0] = %+v, want %s/align", first, obs.EvAdmit)
	}
	last := ev.Events[len(ev.Events)-1]
	if last.Kind != obs.EvFinish || last.Detail != "succeeded" || last.Attempt != attempts {
		t.Errorf("final event = %+v, want %s/succeeded attempt %d", last, obs.EvFinish, attempts)
	}

	// Locate the landmarks and check their order and payloads.
	idx := func(pred func(e fastlsa.RecorderEvent) bool) int {
		for i, e := range ev.Events {
			if pred(e) {
				return i
			}
		}
		return -1
	}
	start1 := idx(func(e fastlsa.RecorderEvent) bool { return e.Kind == obs.EvStart && e.Attempt == 1 })
	retry := idx(func(e fastlsa.RecorderEvent) bool { return e.Kind == obs.EvRetry })
	startN := idx(func(e fastlsa.RecorderEvent) bool { return e.Kind == obs.EvStart && e.Attempt == attempts })
	route := idx(func(e fastlsa.RecorderEvent) bool { return e.Kind == obs.EvRoute })
	phase := idx(func(e fastlsa.RecorderEvent) bool { return e.Kind == obs.EvPhase })
	for name, i := range map[string]int{
		"start attempt 1": start1, "retry": retry, "final start": startN,
		"route decision": route, "phase span": phase,
	} {
		if i < 0 {
			kinds := make([]string, len(ev.Events))
			for j, e := range ev.Events {
				kinds[j] = e.Kind
			}
			t.Fatalf("timeline lacks a %s event: %v", name, kinds)
		}
	}
	if !(start1 < retry && retry < startN && startN < phase) {
		t.Errorf("timeline out of order: start1=%d retry=%d startN=%d phase=%d",
			start1, retry, startN, phase)
	}

	// The retry event carries the injected fault and the backoff it cost.
	re := ev.Events[retry]
	if !strings.Contains(re.Detail, "injected") {
		t.Errorf("retry detail = %q, want the injected fault's error", re.Detail)
	}
	if re.Attempt != 1 || re.Duration <= 0 {
		t.Errorf("retry event = %+v, want attempt 1 with a positive backoff", re)
	}

	// Failed attempts never ran the task (the fault strikes before it), so
	// every solver event sits after the final start.
	for i, e := range ev.Events {
		switch e.Kind {
		case obs.EvPhase, obs.EvRoute, obs.EvBudgetFallback:
			if i < startN {
				t.Errorf("solver event %s at index %d precedes the final start (%d)", e.Kind, i, startN)
			}
		}
	}
}

// TestJobViewEventsOptIn: the timeline stays out of the plain job view and
// appears under ?events=1.
func TestJobViewEventsOptIn(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"type": "align", "align": %s}`, alignBody))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	pollJob(t, srv.URL+"/v1/jobs/"+id, "succeeded", 10*time.Second)

	_, plain := postJSONGet(t, srv.URL+"/v1/jobs/"+id)
	if _, ok := plain["events"]; ok {
		t.Error("plain job view carries events without ?events=1")
	}
	_, with := postJSONGet(t, srv.URL+"/v1/jobs/"+id+"?events=1")
	evs, ok := with["events"].(map[string]any)
	if !ok {
		t.Fatalf("?events=1 view lacks events: %v", with)
	}
	if total, _ := evs["totalEvents"].(float64); total < 3 {
		t.Errorf("totalEvents = %v, want >= 3 (admit, start, finish)", evs["totalEvents"])
	}

	// Unknown jobs 404 on the events endpoint like on the job view.
	r404, err := http.Get(srv.URL + "/v1/jobs/nonesuch/events")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("events of unknown job: status %d, want 404", r404.StatusCode)
	}
}

// TestIncidentRingCapturesFailures: a failed sync align must leave both an
// http-5xx incident (the 500 response) and a job-failed incident carrying the
// job's flight-recorder timeline in /v1/debug/incidents. A job that failed
// on its client's input before it (a 422) must leave no incident.
func TestIncidentRingCapturesFailures(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/align", `{"a":"ACGTACGT","b":"ACGTTCGT","matrix":"dna","workers":-1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("align with workers -1: status %d, want 422 (%v)", resp.StatusCode, out)
	}

	if err := fault.Arm("engine.worker:error", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()
	resp, out = postJSON(t, srv.URL+"/v1/align", alignBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("align under worker fault: status %d, want 500 (%v)", resp.StatusCode, out)
	}
	fault.Disarm()

	var incidents []map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := postJSONGet(t, srv.URL+"/v1/debug/incidents")
		raw, _ := body["incidents"].([]any)
		incidents = incidents[:0]
		for _, it := range raw {
			incidents = append(incidents, it.(map[string]any))
		}
		if len(incidents) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	var saw5xx bool
	jobFailed := 0
	for _, inc := range incidents {
		switch inc["kind"] {
		case "http-5xx":
			saw5xx = true
			if inc["route"] != "POST /v1/align" {
				t.Errorf("http-5xx route = %v", inc["route"])
			}
			if inc["status"].(float64) != 500 {
				t.Errorf("http-5xx status = %v", inc["status"])
			}
		case "job-failed":
			jobFailed++
			if inc["jobKind"] != "align" {
				t.Errorf("job-failed kind = %v", inc["jobKind"])
			}
			if e, _ := inc["error"].(string); !strings.Contains(e, "injected") {
				t.Errorf("job-failed error = %q, want the injected fault", e)
			}
			evs, ok := inc["events"].(map[string]any)
			if !ok {
				t.Fatalf("job-failed incident lacks the flight-recorder timeline: %v", inc)
			}
			list, _ := evs["events"].([]any)
			if len(list) == 0 {
				t.Fatal("job-failed incident has an empty timeline")
			}
			lastEv := list[len(list)-1].(map[string]any)
			if lastEv["kind"] != obs.EvFinish || lastEv["detail"] != "failed" {
				t.Errorf("incident timeline tail = %v, want %s/failed", lastEv, obs.EvFinish)
			}
		}
	}
	if !saw5xx || jobFailed != 1 {
		t.Fatalf("incidents = %v, want one http-5xx and one job-failed", incidents)
	}
}

// TestMetricsNewFamilies lints the whole exposition (scrapeMetrics enforces
// the text format strictly) and pins the families this layer added: phase
// seconds, runtime health and build info.
func TestMetricsNewFamilies(t *testing.T) {
	srv := httptest.NewServer(newServer(serverConfig{
		DefaultWorkers: 1,
		ProfLabels:     true,
	}))
	defer srv.Close()
	defer obs.SetProfLabels(false) // newServer flipped the global switch

	if resp, out := postJSON(t, srv.URL+"/v1/align", alignBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("align status %d: %v", resp.StatusCode, out)
	}

	m := scrapeMetrics(t, srv.URL)
	series := func(prefix string) []string {
		var hits []string
		for s := range m {
			if strings.HasPrefix(s, prefix) {
				hits = append(hits, s)
			}
		}
		return hits
	}

	// Phase seconds: every (backend, phase) series is exported, none
	// negative, and the align above (table1 routes to FastLSA) put time on
	// the FastLSA base case. The mislabelled CPU family is gone.
	phases := series("fastlsa_phase_seconds_total{")
	if len(phases) != len(obs.PhaseSeconds()) {
		t.Errorf("fastlsa_phase_seconds_total has %d series, want %d: %v", len(phases), len(obs.PhaseSeconds()), phases)
	}
	for _, s := range phases {
		if !strings.Contains(s, `backend="`) || !strings.Contains(s, `phase="`) {
			t.Errorf("phase series %s lacks backend/phase labels", s)
		}
		if m[s] < 0 {
			t.Errorf("phase series %s negative: %v", s, m[s])
		}
	}
	if v := m[`fastlsa_phase_seconds_total{backend="fastlsa",phase="base-case"}`]; v <= 0 {
		t.Errorf("fastlsa base-case phase seconds = %v after an align, want > 0", v)
	}
	if old := series("fastlsa_prof_cpu_seconds_total"); len(old) != 0 {
		t.Errorf("retired family still exported: %v", old)
	}

	// Runtime health and process identity.
	if m["fastlsa_go_goroutines"] <= 0 {
		t.Errorf("fastlsa_go_goroutines = %v, want > 0", m["fastlsa_go_goroutines"])
	}
	if m["fastlsa_go_heap_bytes"] <= 0 {
		t.Errorf("fastlsa_go_heap_bytes = %v, want > 0", m["fastlsa_go_heap_bytes"])
	}
	if _, ok := m["fastlsa_go_gc_cycles_total"]; !ok {
		t.Error("missing fastlsa_go_gc_cycles_total")
	}
	if _, ok := m["fastlsa_go_gc_pause_seconds_total"]; !ok {
		t.Error("missing fastlsa_go_gc_pause_seconds_total")
	}
	if m["fastlsa_process_uptime_seconds"] < 0 {
		t.Errorf("uptime = %v", m["fastlsa_process_uptime_seconds"])
	}
	info := series("fastlsa_build_info{")
	if len(info) != 1 || m[info[0]] != 1 {
		t.Fatalf("fastlsa_build_info series = %v, want exactly one with value 1", info)
	}
	if !strings.Contains(info[0], `go_version="go`) || !strings.Contains(info[0], `revision="`) {
		t.Errorf("build info labels missing: %s", info[0])
	}

	// A second scrape must keep the phase counters monotone.
	m2 := scrapeMetrics(t, srv.URL)
	for _, s := range phases {
		if m2[s] < m[s] {
			t.Errorf("phase counter %s went backwards: %v -> %v", s, m[s], m2[s])
		}
	}
}

// TestStreamSearchRequestIDAndAccessLog pins request-id propagation on the
// streaming NDJSON path: the header echoes the caller's id and the access log
// records the route, id and status of the completed stream.
func TestStreamSearchRequestIDAndAccessLog(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	srv, query, _ := corpusServer(t, serverConfig{Logger: logger})

	req, err := http.NewRequest(http.MethodGet,
		srv.URL+"/v1/search?stream=1&q="+query.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "stream-test-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "stream-test-7" {
		t.Errorf("X-Request-ID = %q, want stream-test-7", got)
	}
	events := readNDJSON(t, resp)
	if len(events) < 2 || events[len(events)-1]["type"] != "summary" {
		t.Fatalf("stream shape wrong: %v", events)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	var rec map[string]any
	for _, line := range lines {
		var cand map[string]any
		if err := json.Unmarshal([]byte(line), &cand); err != nil {
			t.Fatalf("access log line not JSON: %q", line)
		}
		if cand["request_id"] == "stream-test-7" {
			rec = cand
		}
	}
	if rec == nil {
		t.Fatalf("no access-log record for the stream: %q", lines)
	}
	if route, _ := rec["route"].(string); !strings.Contains(route, "/v1/search") {
		t.Errorf("route = %v", rec["route"])
	}
	if rec["status"] != float64(http.StatusOK) {
		t.Errorf("status = %v", rec["status"])
	}
}

// TestRetriedJobTraceCoversFinalAttempt: the trace is created inside the task
// closure, so a job that failed its first attempts returns a trace of the
// final (successful) attempt only — one traceback span, not one per attempt.
func TestRetriedJobTraceCoversFinalAttempt(t *testing.T) {
	if err := fault.Arm("engine.worker:error", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	srv := testServer(t)
	body := fmt.Sprintf(`{
		"type": "align",
		"retry": {"maxAttempts": 100, "backoffMs": 1},
		"align": %s
	}`, alignBody)
	resp, out := postJSON(t, srv.URL+"/v1/jobs?trace=1", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	pollAttempts(t, srv.URL+"/v1/jobs/"+id, 2, 10*time.Second)
	fault.Disarm()
	done := pollJob(t, srv.URL+"/v1/jobs/"+id, "succeeded", 10*time.Second)
	if got := int(done["attempts"].(float64)); got < 2 {
		t.Fatalf("attempts = %d, want >= 2", got)
	}

	raw, err := json.Marshal(done["result"])
	if err != nil {
		t.Fatal(err)
	}
	var ar struct {
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, ar.Trace)
	var tr chromeTrace
	if err := json.Unmarshal(ar.Trace, &tr); err != nil {
		t.Fatal(err)
	}
	tracebacks := 0
	for _, ev := range tr.TraceEvents {
		if ev.Name == "traceback" {
			tracebacks++
		}
	}
	if tracebacks != 1 {
		t.Errorf("trace has %d traceback spans, want 1 (the final attempt only)", tracebacks)
	}
}
