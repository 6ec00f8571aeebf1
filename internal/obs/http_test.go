package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareRequestID(t *testing.T) {
	var seen string
	h := MiddlewareObserved("GET /x", nil, nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.WriteHeader(204)
	}))

	// Generated id: present in context and echoed on the response.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if seen == "" {
		t.Error("no request id in context")
	}
	if got := rec.Header().Get(RequestIDHeader); got != seen {
		t.Errorf("response header id %q != context id %q", got, seen)
	}

	// Client-supplied id is honoured.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "client-42")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "client-42" {
		t.Errorf("context id = %q, want client-42", seen)
	}
}

func TestMiddlewareMetricsAndLogs(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "test")
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))

	h := MiddlewareObserved("POST /v1/align", logger, hm, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(422)
		w.Write([]byte("bad"))
	}))
	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/align", nil))
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	text := expo.String()
	if !strings.Contains(text, `test_http_requests_total{route="POST /v1/align",method="POST",code="422"} 3`) {
		t.Errorf("missing request counter:\n%s", text)
	}
	if !strings.Contains(text, `test_http_request_duration_seconds_count{route="POST /v1/align"} 3`) {
		t.Errorf("missing latency histogram count:\n%s", text)
	}
	if !strings.Contains(text, "test_http_requests_in_flight 0") {
		t.Errorf("in-flight gauge not back to 0:\n%s", text)
	}

	// One JSON log line per request with the expected attributes.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d log lines, want 3", len(lines))
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if entry["route"] != "POST /v1/align" || entry["status"] != float64(422) {
		t.Errorf("log entry = %v", entry)
	}
	if id, _ := entry["request_id"].(string); id == "" {
		t.Error("log entry missing request_id")
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "d")
	h := MiddlewareObserved("GET /ok", nil, hm, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok")) // implicit 200, no WriteHeader
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok", nil))

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `d_http_requests_total{route="GET /ok",method="GET",code="200"} 1`) {
		t.Errorf("implicit 200 not recorded:\n%s", expo.String())
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestItoa(t *testing.T) {
	for _, n := range []int{0, 1, 99, 100, 200, 404, 999, 1234} {
		if got, want := itoa(n), strings.TrimSpace(jsonInt(n)); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
