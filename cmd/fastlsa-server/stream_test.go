package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fastlsa"
	"fastlsa/internal/index"
)

// testCorpus builds a small deterministic DNA corpus: background sequences
// plus one exact copy of the query planted at a known position.
func testCorpus(t *testing.T, n int) (*fastlsa.Corpus, *fastlsa.Sequence, int) {
	t.Helper()
	const length = 200
	seqs := make([]*fastlsa.Sequence, n)
	for i := range seqs {
		seqs[i] = fastlsa.RandomSequence("bg", length, fastlsa.DNA, int64(i+1))
	}
	query := fastlsa.RandomSequence("needle", length, fastlsa.DNA, 999)
	planted := n / 2
	dup, err := fastlsa.NewSequence("planted", query.String(), fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	seqs[planted] = dup
	corpus, err := index.New(seqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return corpus, query, planted
}

func corpusServer(t *testing.T, cfg serverConfig) (*httptest.Server, *fastlsa.Sequence, int) {
	t.Helper()
	corpus, query, planted := testCorpus(t, 20)
	cfg.Corpus = corpus
	if cfg.DefaultWorkers == 0 {
		cfg.DefaultWorkers = 1
	}
	srv := httptest.NewServer(newServer(cfg))
	t.Cleanup(srv.Close)
	return srv, query, planted
}

// readNDJSON decodes every line of an NDJSON body into loosely-typed maps.
func readNDJSON(t *testing.T, resp *http.Response) []map[string]any {
	t.Helper()
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestStreamSearchGET(t *testing.T) {
	srv, query, planted := corpusServer(t, serverConfig{})
	resp, err := http.Get(srv.URL + "/v1/search?q=" + query.String() + "&topK=3&minScore=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readNDJSON(t, resp)
	if len(events) < 3 {
		t.Fatalf("only %d events: %v", len(events), events)
	}
	if events[0]["type"] != "query" || events[0]["corpus"].(float64) != 20 {
		t.Fatalf("first event = %v", events[0])
	}
	last := events[len(events)-1]
	if last["type"] != "summary" {
		t.Fatalf("last event = %v", last)
	}
	hits := last["hits"].([]any)
	if len(hits) == 0 {
		t.Fatal("summary has no hits")
	}
	best := hits[0].(map[string]any)
	if int(best["index"].(float64)) != planted || best["id"] != "planted" {
		t.Fatalf("best hit = %v, want planted index %d", best, planted)
	}
	if best["cigar"] == nil || best["cigar"] == "" {
		t.Fatalf("best hit missing alignment: %v", best)
	}
	// The funnel rides on the summary: every corpus entry was scanned by the
	// filter, and the planted homolog was streamed as a provisional hit
	// before the summary.
	if int(last["scanned"].(float64)) != 20 {
		t.Fatalf("funnel scanned = %v, want 20", last["scanned"])
	}
	streamed := false
	for _, ev := range events[1 : len(events)-1] {
		if ev["type"] != "hit" {
			t.Fatalf("mid-stream event %v", ev)
		}
		if int(ev["index"].(float64)) == planted {
			streamed = true
		}
	}
	if !streamed {
		t.Fatal("planted hit never streamed before the summary")
	}
}

func TestStreamSearchPOST(t *testing.T) {
	srv, query, _ := corpusServer(t, serverConfig{})
	body := `{"query":"` + query.String() + `","topK":2,"minScore":100}`
	resp, err := http.Post(srv.URL+"/v1/search?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events := readNDJSON(t, resp)
	if events[0]["type"] != "query" || events[len(events)-1]["type"] != "summary" {
		t.Fatalf("stream shape wrong: %v", events)
	}
}

func TestStreamSearchPOSTInlineDatabaseRejected(t *testing.T) {
	srv, query, _ := corpusServer(t, serverConfig{})
	body := `{"query":"` + query.String() + `","database":[{"id":"d","letters":"ACGT"}]}`
	resp, err := http.Post(srv.URL+"/v1/search?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestSearchGETWithoutCorpus(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/search?q=ACGTACGT")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
}

func TestSearchGETValidation(t *testing.T) {
	srv, query, _ := corpusServer(t, serverConfig{})
	for _, qs := range []string{
		"?q=",            // empty query
		"?q=ACGT&topK=x", // bad number
		"?q=ACXT",        // invalid residue
		"?q=" + query.String() + "&matrix=blosum62", // wrong alphabet
	} {
		resp, err := http.Get(srv.URL + "/v1/search" + qs)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s -> status %d, want 400", qs, resp.StatusCode)
		}
	}
}

// TestCorpusPOSTBuffered pins the non-streaming corpus path: a POST with no
// inline database searches the loaded corpus and reports the filter funnel.
func TestCorpusPOSTBuffered(t *testing.T) {
	srv, query, planted := corpusServer(t, serverConfig{})
	resp, out := postJSON(t, srv.URL+"/v1/search", `{"query":"`+query.String()+`","topK":3,"minScore":100}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	hits := out["hits"].([]any)
	if len(hits) == 0 {
		t.Fatalf("no hits: %v", out)
	}
	if int(hits[0].(map[string]any)["index"].(float64)) != planted {
		t.Fatalf("best hit %v, want index %d", hits[0], planted)
	}
	funnel, ok := out["funnel"].(map[string]any)
	if !ok {
		t.Fatalf("missing funnel: %v", out)
	}
	if int(funnel["scanned"].(float64)) != 20 {
		t.Fatalf("funnel = %v, want scanned 20", funnel)
	}
}

func TestSearchRateLimit(t *testing.T) {
	srv, query, _ := corpusServer(t, serverConfig{SearchRate: 0.01, SearchBurst: 2})
	url := srv.URL + "/v1/search?q=" + query.String() + "&topK=1&minScore=100"
	for i := 0; i < 2; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After header")
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["retryAfterMs"] == nil || out["retryAfterMs"].(float64) <= 0 {
		t.Fatalf("missing retryAfterMs hint: %v", out)
	}
}

func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(10, 1) // 10 tokens/s, burst 1
	now := time.Unix(0, 0)
	if ok, _ := l.allow("a", now); !ok {
		t.Fatal("first request should pass")
	}
	if ok, wait := l.allow("a", now); ok {
		t.Fatal("second immediate request should be limited")
	} else if wait < time.Second {
		t.Fatalf("Retry-After %v below whole-second floor", wait)
	}
	if ok, _ := l.allow("a", now.Add(200*time.Millisecond)); !ok {
		t.Fatal("token should have accrued after 200ms at 10/s")
	}
	// Distinct clients meter independently.
	if ok, _ := l.allow("b", now); !ok {
		t.Fatal("fresh client should pass")
	}
	if l.limited.Load() != 1 {
		t.Fatalf("limited counter = %d, want 1", l.limited.Load())
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	var l *rateLimiter // rate 0 -> newRateLimiter returns nil
	if l = newRateLimiter(0, 5); l != nil {
		t.Fatal("rate 0 should disable limiting")
	}
	if ok, _ := l.allow("anyone", time.Now()); !ok {
		t.Fatal("nil limiter must allow")
	}
}

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest("GET", "/v1/search", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if k := clientKey(r); k != "10.1.2.3" {
		t.Fatalf("clientKey = %q", k)
	}
	r.Header.Set("X-Forwarded-For", "203.0.113.7, 10.0.0.1")
	if k := clientKey(r); k != "203.0.113.7" {
		t.Fatalf("clientKey with XFF = %q", k)
	}
}

// TestStreamSearchMetrics verifies the search funnel counters surface on
// /metrics after a corpus search.
func TestStreamSearchMetrics(t *testing.T) {
	srv, query, _ := corpusServer(t, serverConfig{})
	resp, err := http.Get(srv.URL + "/v1/search?q=" + query.String() + "&topK=1&minScore=100")
	if err != nil {
		t.Fatal(err)
	}
	readNDJSON(t, resp)
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	body := sb.String()
	for _, metric := range []string{
		"fastlsa_search_scanned_total",
		"fastlsa_search_candidates_total",
		"fastlsa_search_examined_total",
		"fastlsa_search_rate_limited_total",
		"fastlsa_corpus_entries 20",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics missing %q", metric)
		}
	}
}
