package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func doJSON(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// slowAlignJob is a job body whose alignment is large enough to stay busy
// for a while (n x n cells), so cancellation and queue pressure are
// observable. The FastLSA backend is pinned: under auto the router would
// send this identical pair to WFA, which finishes it in microseconds.
func slowAlignJob(n int) string {
	seq := strings.Repeat("ACGT", n/4)
	return fmt.Sprintf(`{"type":"align","align":{"a":%q,"b":%q,"matrix":"dna","gap":{"extend":-4},"workers":1,"algorithm":"fastlsa"}}`, seq, seq)
}

func pollJob(t *testing.T, url string, want string, deadline time.Duration) map[string]any {
	t.Helper()
	var last map[string]any
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		resp, out := doJSON(t, http.MethodGet, url, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %v", resp.StatusCode, out)
		}
		last = out
		if out["state"] == want {
			return out
		}
		if st, _ := out["state"].(string); st == "succeeded" || st == "failed" || st == "cancelled" {
			t.Fatalf("job reached %q, want %q: %v", st, want, out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job never reached %q (last: %v)", want, last)
	return nil
}

// TestJobLifecycle submits an async align job, polls it to completion, and
// reads the result through GET /v1/jobs/{id}.
func TestJobLifecycle(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/jobs", `{
		"type": "align", "priority": 3,
		"align": {"a": "TDVLKAD", "b": "TLDKLLKD", "matrix": "table1", "gap": {"extend": -10}}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %v", out)
	}
	if out["priority"].(float64) != 3 {
		t.Fatalf("priority not echoed: %v", out)
	}

	done := pollJob(t, srv.URL+"/v1/jobs/"+id, "succeeded", 5*time.Second)
	result, _ := done["result"].(map[string]any)
	if result == nil || result["score"].(float64) != 82 {
		t.Fatalf("bad result: %v", done)
	}

	// The job shows up in the listing (without its result).
	lresp, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", "")
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", lresp.StatusCode)
	}
}

// TestJobCancellation cancels a long-running job through DELETE and watches
// it land in the cancelled state.
func TestJobCancellation(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/jobs", slowAlignJob(8000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	id := out["id"].(string)

	dresp, dout := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+id, "")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %v", dresp.StatusCode, dout)
	}
	done := pollJob(t, srv.URL+"/v1/jobs/"+id, "cancelled", 5*time.Second)
	if done["error"] == "" {
		t.Fatalf("cancelled job should carry an error: %v", done)
	}
}

// TestJobQueueFull saturates a 1-worker, depth-1 engine with slow jobs and
// requires admission control to shed load with 503.
func TestJobQueueFull(t *testing.T) {
	srv := httptest.NewServer(newServer(serverConfig{
		DefaultWorkers: 1, EngineWorkers: 1, QueueDepth: 1,
	}))
	defer srv.Close()

	accepted, rejected := 0, 0
	for i := 0; i < 6; i++ {
		resp, _ := postJSON(t, srv.URL+"/v1/jobs", slowAlignJob(6000))
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted=%d rejected=%d, want both > 0", accepted, rejected)
	}
	sresp, stats := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", sresp.StatusCode)
	}
	if stats["rejected"].(float64) < float64(rejected) {
		t.Fatalf("stats rejected %v < %d observed", stats["rejected"], rejected)
	}
}

func TestJobNotFound(t *testing.T) {
	srv := testServer(t)
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/job-999", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/job-999", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete: status %d, want 404", resp.StatusCode)
	}
}

func TestJobValidation(t *testing.T) {
	srv := testServer(t)
	for body, want := range map[string]int{
		`not json`:          http.StatusBadRequest,
		`{"type":"warp"}`:   http.StatusBadRequest,
		`{"type":"align"}`:  http.StatusBadRequest, // missing align body
		`{"type":"msa"}`:    http.StatusBadRequest,
		`{"type":"search"}`: http.StatusBadRequest,
		`{"type":"align","align":{"a":"ACGU","b":"ACGT","matrix":"dna"}}`: http.StatusBadRequest,
	} {
		resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
		if resp.StatusCode != want {
			t.Fatalf("body %q -> %d (want %d): %v", body, resp.StatusCode, want, out)
		}
	}
}

// TestBatchEndpoint aligns three pairs in one atomically-admitted batch.
func TestBatchEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/batch", `{
		"matrix": "table1", "gap": {"extend": -10},
		"pairs": [
			{"a": "TDVLKAD", "b": "TLDKLLKD"},
			{"a": "TDVLKAD", "b": "TDVLKAD"},
			{"a": "KKKK", "b": "DDDD"}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	units, _ := out["units"].([]any)
	if len(units) != 3 {
		t.Fatalf("units = %v", out)
	}
	first := units[0].(map[string]any)
	res, _ := first["result"].(map[string]any)
	if res == nil || res["score"].(float64) != 82 {
		t.Fatalf("unit 0: %v", first)
	}
}

// TestBatchAtomicRejection: a batch larger than the queue bound is rejected
// whole with 503 — no partial admission.
func TestBatchAtomicRejection(t *testing.T) {
	srv := httptest.NewServer(newServer(serverConfig{
		DefaultWorkers: 1, EngineWorkers: 1, QueueDepth: 2,
	}))
	defer srv.Close()
	resp, out := postJSON(t, srv.URL+"/v1/batch", `{
		"matrix": "dna", "gap": {"extend": -4},
		"pairs": [
			{"a": "ACGT", "b": "ACGT"}, {"a": "ACGT", "b": "ACGT"},
			{"a": "ACGT", "b": "ACGT"}
		]
	}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (want 503): %v", resp.StatusCode, out)
	}
	_, stats := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	if stats["submitted"].(float64) != 0 {
		t.Fatalf("partial admission: %v", stats)
	}
}

func TestBatchValidation(t *testing.T) {
	srv := httptest.NewServer(newServer(serverConfig{DefaultWorkers: 1, MaxBatch: 2}))
	defer srv.Close()
	for body, want := range map[string]int{
		`{"matrix":"dna","pairs":[]}`: http.StatusBadRequest,
		`{"matrix":"dna","gap":{"extend":-4},"pairs":[{"a":"A","b":"A"},{"a":"A","b":"A"},{"a":"A","b":"A"}]}`: http.StatusBadRequest, // over MaxBatch
		`{"matrix":"dna","gap":{"extend":-4},"pairs":[{"a":"ACGU","b":"A"}]}`:                                  http.StatusBadRequest, // bad residue
	} {
		resp, out := postJSON(t, srv.URL+"/v1/batch", body)
		if resp.StatusCode != want {
			t.Fatalf("body %q -> %d (want %d): %v", body, resp.StatusCode, want, out)
		}
	}
}

// TestStatsEndpoint sanity-checks the counters after some traffic.
func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	postJSON(t, srv.URL+"/v1/align", `{"a":"ACGT","b":"ACGT","matrix":"dna","gap":{"extend":-4}}`)
	resp, out := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out["workers"].(float64) < 1 {
		t.Fatalf("workers: %v", out)
	}
	if out["submitted"].(float64) < 1 || out["succeeded"].(float64) < 1 {
		t.Fatalf("sync traffic not routed through the engine: %v", out)
	}
	al, ok := out["alignment"].(map[string]any)
	if !ok {
		t.Fatalf("stats lack the alignment counters: %v", out)
	}
	if al["cells"].(float64) < 1 {
		t.Fatalf("alignment work not accumulated into /v1/stats: %v", al)
	}
	// The parallel-fill counters must be present (zero is fine: this
	// alignment is too small for a parallel fill).
	for _, key := range []string{"fill_tiles", "phase1_tiles", "phase2_tiles", "phase3_tiles"} {
		if _, ok := al[key]; !ok {
			t.Fatalf("alignment stats lack %q: %v", key, al)
		}
	}
}

// TestJobViewResultEvicted: a succeeded job whose result payload aged past
// MaxRetainedResults says so in its view; the newest job keeps its result
// and carries no flag.
func TestJobViewResultEvicted(t *testing.T) {
	s := newServer(serverConfig{DefaultWorkers: 1, EngineWorkers: 1, QueueDepth: 4,
		MaxRetained: 4, MaxRetainedResults: 1})
	defer s.shutdown(context.Background())
	srv := httptest.NewServer(s)
	defer srv.Close()

	ids := make([]string, 2)
	for i := range ids {
		resp, out := postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"type": "align", "align": %s}`, alignBody))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %v", i, resp.StatusCode, out)
		}
		ids[i] = out["id"].(string)
		pollJob(t, srv.URL+"/v1/jobs/"+ids[i], "succeeded", 10*time.Second)
	}
	// The engine drops the aged payload just after the newest job reports
	// succeeded, so poll for it.
	var old map[string]any
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, old = doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+ids[0], ""); old["result"] == nil {
			break
		}
	}
	if old["resultEvicted"] != true || old["result"] != nil {
		t.Errorf("aged job view = %v, want resultEvicted and no result", old)
	}
	_, cur := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+ids[1], "")
	if _, ok := cur["resultEvicted"]; ok || cur["result"] == nil {
		t.Errorf("newest job view = %v, want its result and no resultEvicted", cur)
	}
}

// TestJobViewNeverTorn polls jobs across their completion, straight through
// the handler so polls land densely around each one: a GET /v1/jobs/{id}
// that reports "succeeded" must carry the result, never a view that read
// the result before completion and the state after it. One engine worker
// finishes the jobs in submission order and every poller walks the ids in
// that order, so all pollers hammer the job that is about to complete. Run
// under -race it also checks the handler's job reads.
func TestJobViewNeverTorn(t *testing.T) {
	const jobs, pollers = 300, 3
	s := newServer(serverConfig{DefaultWorkers: 1, EngineWorkers: 1, QueueDepth: jobs,
		MaxRetained: jobs, MaxRetainedResults: jobs})
	defer s.shutdown(context.Background())

	do := func(method, path, body string) map[string]any {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Errorf("%s %s: status %d, body %q", method, path, rec.Code, rec.Body.String())
		}
		return out
	}
	// Each job fills ~100k cells, long enough for the pollers to queue up
	// on it before it completes.
	job := slowAlignJob(320)
	ids := make([]string, jobs)
	for i := range ids {
		out := do(http.MethodPost, "/v1/jobs", job)
		ids[i], _ = out["id"].(string)
		if ids[i] == "" {
			t.Fatalf("submit %d: %v", i, out)
		}
	}

	var torn, polls atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(30 * time.Second)
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				for {
					if time.Now().After(deadline) {
						t.Errorf("job %s did not finish in time", id)
						return
					}
					v := do(http.MethodGet, "/v1/jobs/"+id, "")
					polls.Add(1)
					if v["state"] == "succeeded" {
						if v["result"] == nil {
							torn.Add(1)
						}
						break
					}
					if v["state"] == "failed" || v["state"] == "cancelled" {
						t.Errorf("job %s ended %v: %v", id, v["state"], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d of %d polls saw a succeeded job without its result", n, polls.Load())
	}
}
