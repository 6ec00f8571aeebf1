package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrapeMetrics fetches /metrics and parses the Prometheus text exposition
// strictly: every sample must be preceded by a # TYPE line for its family,
// values must parse as floats, and histogram buckets must be cumulative.
// Samples are returned keyed by their full series name (name{labels}).
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples := make(map[string]float64)
	typed := make(map[string]string) // family -> type
	for ln, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[3])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value: %q", ln+1, line)
		}
		series, valstr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valstr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valstr, err)
		}
		family := series
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE for family %q", ln+1, series, family)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = v
	}
	if len(samples) == 0 {
		t.Fatal("empty /metrics exposition")
	}
	return samples
}

const alignBody = `{"a": "TDVLKADTDVLKADTDVLKAD", "b": "TLDKLLKDTLDKLLKDTLDKLLKD", "matrix": "table1", "gap": {"extend": -10}}`

func TestMetricsExposition(t *testing.T) {
	srv := testServer(t)

	before := scrapeMetrics(t, srv.URL)
	for _, name := range []string{
		"fastlsa_engine_workers",
		"fastlsa_engine_queue_depth",
		"fastlsa_engine_jobs_submitted_total",
		"fastlsa_align_cells_total",
		"fastlsa_align_fill_tiles_total",
		"fastlsa_align_cells_per_second",
	} {
		if _, ok := before[name]; !ok {
			t.Errorf("missing series %q", name)
		}
	}

	resp, _ := postJSON(t, srv.URL+"/v1/align", alignBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align: status %d", resp.StatusCode)
	}

	after := scrapeMetrics(t, srv.URL)
	if after["fastlsa_align_cells_total"] <= before["fastlsa_align_cells_total"] {
		t.Errorf("cells_total did not grow: before=%v after=%v",
			before["fastlsa_align_cells_total"], after["fastlsa_align_cells_total"])
	}
	reqSeries := `fastlsa_http_requests_total{route="POST /v1/align",method="POST",code="200"}`
	if after[reqSeries] != before[reqSeries]+1 {
		t.Errorf("%s: before=%v after=%v (want +1)", reqSeries, before[reqSeries], after[reqSeries])
	}
	latCount := `fastlsa_http_request_duration_seconds_count{route="POST /v1/align"}`
	if after[latCount] != before[latCount]+1 {
		t.Errorf("%s: before=%v after=%v (want +1)", latCount, before[latCount], after[latCount])
	}

	// Counters must be monotone across scrapes.
	for series, v := range before {
		if strings.Contains(series, "_total") || strings.HasSuffix(series, "_count") {
			if after[series] < v {
				t.Errorf("counter %s went backwards: %v -> %v", series, v, after[series])
			}
		}
	}

	// Histogram buckets are cumulative and capped by _count.
	bucketPrefix := `fastlsa_http_request_duration_seconds_bucket{route="POST /v1/align",le="`
	prev := 0.0
	var les []float64
	for series := range after {
		if strings.HasPrefix(series, bucketPrefix) {
			le := strings.TrimSuffix(strings.TrimPrefix(series, bucketPrefix), `"}`)
			if le == "+Inf" {
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", le, err)
			}
			les = append(les, f)
		}
	}
	if len(les) == 0 {
		t.Fatal("no latency buckets exposed")
	}
	for i := range les {
		for j := i + 1; j < len(les); j++ {
			if les[j] < les[i] {
				les[i], les[j] = les[j], les[i]
			}
		}
	}
	for _, le := range les {
		v := after[bucketPrefix+strconv.FormatFloat(le, 'g', -1, 64)+`"}`]
		if v < prev {
			t.Errorf("bucket le=%v not cumulative: %v < %v", le, v, prev)
		}
		prev = v
	}
	if inf := after[bucketPrefix+`+Inf"}`]; inf != after[latCount] {
		t.Errorf("+Inf bucket %v != _count %v", inf, after[latCount])
	}
}

// TestStatsAccumulateAcrossConcurrentWork drives concurrent synchronous
// aligns plus a batch and checks that the service-wide /v1/stats alignment
// counters equal the sum of every response's cellsComputed — i.e. no work is
// lost or double-counted when many derived counters merge into the shared
// parent — and that the engine's batch counters saw the batch.
func TestStatsAccumulateAcrossConcurrentWork(t *testing.T) {
	// A deep queue so the concurrent singles and the atomically-admitted
	// batch never trip the 503 admission control this test is not about.
	srv := httptest.NewServer(newServer(serverConfig{DefaultWorkers: 1, QueueDepth: 64}))
	defer srv.Close()

	const singles = 6
	var (
		mu    sync.Mutex
		cells float64
	)
	var wg sync.WaitGroup
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/align", "application/json", strings.NewReader(alignBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("align: status %d: %v", resp.StatusCode, out)
				return
			}
			mu.Lock()
			cells += out["cellsComputed"].(float64)
			mu.Unlock()
		}()
	}

	pairs := make([]string, 4)
	for i := range pairs {
		pairs[i] = `{"a": "TDVLKAD", "b": "TLDKLLKD"}`
	}
	batchBody := fmt.Sprintf(`{"matrix": "table1", "gap": {"extend": -10}, "pairs": [%s]}`,
		strings.Join(pairs, ","))
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(batchBody))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var out struct {
			Units []struct {
				Error  string `json:"error"`
				Result struct {
					Cells float64 `json:"cellsComputed"`
				} `json:"result"`
			} `json:"units"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Error(err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("batch: status %d", resp.StatusCode)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, u := range out.Units {
			if u.Error != "" {
				t.Errorf("batch unit failed: %s", u.Error)
				return
			}
			cells += u.Result.Cells
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	resp, stats := postJSONGet(t, srv.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	al := stats["alignment"].(map[string]any)
	if got := al["cells"].(float64); got != cells {
		t.Errorf("alignment.cells = %v, sum of responses = %v", got, cells)
	}
	if got := stats["batches"].(float64); got != 1 {
		t.Errorf("batches = %v, want 1", got)
	}
	if got := stats["batch_units"].(float64); got != float64(len(pairs)) {
		t.Errorf("batch_units = %v, want %d", got, len(pairs))
	}
	if got := stats["submitted"].(float64); got < singles+float64(len(pairs)) {
		t.Errorf("submitted = %v, want >= %d", got, singles+len(pairs))
	}

	// /metrics reads the same shared counters, so it must agree.
	m := scrapeMetrics(t, srv.URL)
	if got := m["fastlsa_align_cells_total"]; got != cells {
		t.Errorf("fastlsa_align_cells_total = %v, want %v", got, cells)
	}
	if got := m["fastlsa_engine_batch_units_total"]; got != float64(len(pairs)) {
		t.Errorf("fastlsa_engine_batch_units_total = %v, want %d", got, len(pairs))
	}
	if got := m[`fastlsa_batch_size_count`]; got != 1 {
		t.Errorf("fastlsa_batch_size_count = %v, want 1", got)
	}
}

func postJSONGet(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, out
}

// chromeTrace is the subset of the Chrome trace_event JSON shape the tests
// validate.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func checkTrace(t *testing.T, raw json.RawMessage) {
	t.Helper()
	if len(raw) == 0 {
		t.Fatal("no trace in response")
	}
	var tr chromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace does not parse as Chrome JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	names := make(map[string]int)
	for _, ev := range tr.TraceEvents {
		names[ev.Name]++
	}
	if names["general-case"]+names["base-case"] == 0 {
		t.Errorf("trace has no solver spans; names: %v", names)
	}
	if names["traceback"] == 0 {
		t.Errorf("trace has no traceback span; names: %v", names)
	}
}

func TestAlignTraceQueryParam(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/align?trace=1", "application/json", strings.NewReader(alignBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID header")
	}
	var out struct {
		Score int64           `json:"score"`
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, out.Trace)

	// Without the flag the response must not carry a trace.
	resp2, plain := postJSON(t, srv.URL+"/v1/align", alignBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if _, ok := plain["trace"]; ok {
		t.Error("untraced align response carries a trace field")
	}
}

func TestJobTraceAndRequestID(t *testing.T) {
	srv := testServer(t)
	body := fmt.Sprintf(`{"type": "align", "align": %s}`, alignBody)
	req, err := http.NewRequest("POST", srv.URL+"/v1/jobs?trace=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "obs-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "obs-test-42" {
		t.Errorf("X-Request-ID = %q, want obs-test-42", got)
	}
	var view struct {
		ID        string `json:"id"`
		RequestID string `json:"requestId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.RequestID != "obs-test-42" {
		t.Errorf("job requestId = %q, want obs-test-42", view.RequestID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r2, out := postJSONGet(t, srv.URL+"/v1/jobs/"+view.ID)
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d", r2.StatusCode)
		}
		switch out["state"] {
		case "succeeded":
			res, err := json.Marshal(out["result"])
			if err != nil {
				t.Fatal(err)
			}
			var ar struct {
				Trace json.RawMessage `json:"trace"`
			}
			if err := json.Unmarshal(res, &ar); err != nil {
				t.Fatal(err)
			}
			checkTrace(t, ar.Trace)
			if out["requestId"] != "obs-test-42" {
				t.Errorf("polled job requestId = %v", out["requestId"])
			}
			return
		case "failed", "cancelled":
			t.Fatalf("job ended %v: %v", out["state"], out["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish; last state %v", out["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAccessLog checks the structured request log: one JSON record per
// request carrying the route label and the request id echoed in the header.
func TestAccessLog(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	app := newServer(serverConfig{DefaultWorkers: 1, Logger: logger})
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, _ := postJSON(t, srv.URL+"/v1/align", alignBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("want 1 access-log record, got %d: %q", len(lines), lines)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log is not JSON: %v", err)
	}
	if rec["route"] != "POST /v1/align" {
		t.Errorf("route = %v", rec["route"])
	}
	if rec["request_id"] != id {
		t.Errorf("request_id = %v, header = %q", rec["request_id"], id)
	}
	if rec["status"] != float64(http.StatusOK) {
		t.Errorf("status = %v", rec["status"])
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// metricTypes fetches /metrics and returns each family's # TYPE.
func metricTypes(t *testing.T, url string) map[string]string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	return types
}

// TestCounterOutputsPinned pins what the counter table exports: the keys of
// the /v1/stats alignment object and the alignment and search families on
// /metrics, with their types.
func TestCounterOutputsPinned(t *testing.T) {
	srv := testServer(t)
	_, out := postJSONGet(t, srv.URL+"/v1/stats")
	var keys []string
	for k := range out["alignment"].(map[string]any) {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := []string{
		"base_cases", "cells", "checkpoint_restores", "checkpoint_saves",
		"fill_tiles", "general_cases", "peak_grid_entries", "phase1_tiles",
		"phase2_tiles", "phase3_tiles", "search_candidates", "search_examined",
		"search_scanned", "traceback_steps",
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("alignment keys %v, want %v", keys, wantKeys)
	}

	families := make(map[string]string)
	for name, typ := range metricTypes(t, srv.URL) {
		if strings.HasPrefix(name, "fastlsa_align_") || strings.HasPrefix(name, "fastlsa_search_") {
			families[name] = typ
		}
	}
	wantFamilies := map[string]string{
		"fastlsa_align_cells_total":               "counter",
		"fastlsa_align_traceback_steps_total":     "counter",
		"fastlsa_align_base_cases_total":          "counter",
		"fastlsa_align_general_cases_total":       "counter",
		"fastlsa_align_fill_tiles_total":          "counter",
		"fastlsa_align_checkpoint_saves_total":    "counter",
		"fastlsa_align_checkpoint_restores_total": "counter",
		"fastlsa_align_peak_grid_entries":         "gauge",
		"fastlsa_align_cells_per_second":          "gauge",
		"fastlsa_search_scanned_total":            "counter",
		"fastlsa_search_candidates_total":         "counter",
		"fastlsa_search_examined_total":           "counter",
		"fastlsa_search_rate_limited_total":       "counter",
	}
	if !reflect.DeepEqual(families, wantFamilies) {
		t.Errorf("families %v, want %v", families, wantFamilies)
	}
}
