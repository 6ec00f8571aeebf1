package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fastlsa"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServer(serverConfig{DefaultWorkers: 1}))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMatrices(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) < 5 {
		t.Fatalf("only %d matrices listed", len(out))
	}
}

// TestAlignPaperExample drives the Figure 1 example through the HTTP API.
func TestAlignPaperExample(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/align", `{
		"a": "TDVLKAD", "b": "TLDKLLKD",
		"matrix": "table1", "gap": {"extend": -10},
		"includeRows": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["score"].(float64) != 82 {
		t.Fatalf("score = %v, want 82", out["score"])
	}
	if out["rowA"] == "" || out["cigar"] == "" {
		t.Fatalf("missing rows/cigar: %v", out)
	}
}

func TestAlignModesAndEngines(t *testing.T) {
	srv := testServer(t)
	for _, body := range []string{
		`{"a":"ACGTACGT","b":"ACGAACGT","matrix":"dna","gap":{"extend":-4}}`,
		`{"a":"ACGTACGT","b":"ACGAACGT","matrix":"dna","gap":{"extend":-4},"algorithm":"fm"}`,
		`{"a":"ACGTACGT","b":"ACGAACGT","matrix":"dna","gap":{"extend":-4},"algorithm":"hirschberg"}`,
		`{"a":"ACGTACGT","b":"ACGAACGT","matrix":"dna","gap":{"extend":-4},"algorithm":"compact"}`,
		`{"a":"ACGTACGT","b":"ACGAACGT","matrix":"dna","gap":{"extend":-4},"mode":"overlap"}`,
		`{"a":"ACGTACGT","b":"ACGAACGT","matrix":"blosum62","alphabet":"dna","gap":{"open":-6,"extend":-1}}`,
	} {
		resp, out := postJSON(t, srv.URL+"/v1/align", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %s -> status %d: %v", body, resp.StatusCode, out)
		}
	}
}

func TestAlignLocalEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/align", `{
		"a": "TTTTACGTACGTTTTT", "b": "GGGGGACGTACGTGGG",
		"matrix": "dna", "gap": {"extend": -4}, "local": true, "includeRows": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["score"].(float64) < 40 {
		t.Fatalf("local score %v too low", out["score"])
	}
	if out["local"] == nil {
		t.Fatal("missing local span")
	}
}

func TestAlignValidation(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"a":"ACGT","b":"ACGU","matrix":"dna"}`, http.StatusBadRequest},  // bad residue
		{`{"a":"ACGT","b":"ACGT","matrix":"warp"}`, http.StatusBadRequest}, // bad matrix
		{`{"a":"ACGT","b":"ACGT","matrix":"dna","mode":"x"}`, http.StatusBadRequest},
		{`{"a":"ACGT","b":"ACGT","matrix":"dna","algorithm":"x"}`, http.StatusBadRequest},
		{`{"a":"ACGT","b":"ACGT","matrix":"dna","gap":{"extend":4}}`, http.StatusUnprocessableEntity},
		// A client-chosen memory budget the run cannot fit is the client's
		// problem (422), not a server bug.
		{`{"a":"ACGTACGTACGTACGTACGT","b":"ACGTACGTACGTACGTACGT","matrix":"dna","gap":{"extend":-4},"algorithm":"fm","memoryBudget":4}`, http.StatusUnprocessableEntity},
		{`{"a":"ACGT","b":"ACGT","matrix":"dna","gap":{"extend":-4},"local":true,"mode":"overlap"}`, http.StatusOK},
		// An affine gap on a linear-only engine is a refused option.
		{`{"a":"ACGT","b":"ACGT","matrix":"dna","gap":{"open":-6,"extend":-2},"algorithm":"compact"}`, http.StatusUnprocessableEntity},
		// So is a negative worker count.
		{`{"a":"ACGTACGT","b":"ACGTTCGT","matrix":"dna","workers":-1}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, srv.URL+"/v1/align", tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("body %q -> status %d (want %d): %v", tc.body, resp.StatusCode, tc.want, out)
		}
	}
}

// TestErrStatusClassification pins the error→status mapping: 422 only for
// known bad-input failures, 500 for anything unrecognized (an internal
// invariant failure must not be reported as the client's fault).
func TestErrStatusClassification(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fastlsa.ErrQueueFull, http.StatusServiceUnavailable},
		{fastlsa.ErrEngineClosed, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusServiceUnavailable},
		{fastlsa.ErrInvalidInput, http.StatusUnprocessableEntity},
		{fmt.Errorf("wrapped: %w", fastlsa.ErrInvalidInput), http.StatusUnprocessableEntity},
		{fastlsa.ErrBudgetExceeded, http.StatusUnprocessableEntity},
		{errors.New("core: reverse scan found 3, forward 5"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := errStatus(tc.err); got != tc.want {
			t.Errorf("errStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestAlignSequenceLimit(t *testing.T) {
	srv := httptest.NewServer(newServer(serverConfig{MaxSequenceLen: 8, DefaultWorkers: 1}))
	defer srv.Close()
	resp, _ := postJSON(t, srv.URL+"/v1/align",
		`{"a":"ACGTACGTACGT","b":"ACGT","matrix":"dna","gap":{"extend":-4}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/search", `{
		"matrix": "dna", "gap": {"extend": -12},
		"query": "ACGTACGTACGTACGTACGTACGTACGTACGT",
		"database": [
			{"id": "noise", "letters": "TTGGCCAATTGGCCAATTGGCCAATTGGCCAA"},
			{"id": "match", "letters": "GGGGACGTACGTACGTACGTACGTACGTACGTACGTGGGG"}
		],
		"topK": 3
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	hits := out["hits"].([]any)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	top := hits[0].(map[string]any)
	if top["id"] != "match" {
		t.Fatalf("top hit %v", top)
	}
	if top["cigar"] == "" {
		t.Fatal("top hit missing cigar")
	}
}

func TestSearchEndpointWithStats(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/search", `{
		"matrix": "dna", "gap": {"extend": -12},
		"query": "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT",
		"database": [{"id": "m", "letters": "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"}],
		"fitStats": true, "statsSeed": 4
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["stats"] == nil {
		t.Fatal("missing fitted stats")
	}
	top := out["hits"].([]any)[0].(map[string]any)
	if top["eValue"].(float64) > 1e-6 {
		t.Fatalf("perfect match e-value %v", top["eValue"])
	}
}

func TestSearchEndpointValidation(t *testing.T) {
	srv := testServer(t)
	for body, want := range map[string]int{
		`{}`:                           http.StatusBadRequest,
		`{"query":"AC","database":[]}`: http.StatusBadRequest,
		`{"query":"","database":[{"letters":"AC"}],"matrix":"dna"}`:                                       http.StatusBadRequest,
		`{"query":"AU","database":[{"letters":"AC"}],"matrix":"dna"}`:                                     http.StatusBadRequest,
		`{"query":"AC","database":[{"letters":"AU"}],"matrix":"dna"}`:                                     http.StatusBadRequest,
		`{"query":"AC","database":[{"letters":"AC"}],"matrix":"nope"}`:                                    http.StatusBadRequest,
		`{"query":"AC","database":[{"letters":"AC"}],"matrix":"dna","gap":{"open":-5,"extend":-1}}`:       http.StatusBadRequest,
		`{"query":"AC","database":[{"letters":"AC"}],"matrix":"dna","gap":{"extend":-1},"fitStats":true}`: http.StatusUnprocessableEntity,
	} {
		resp, out := postJSON(t, srv.URL+"/v1/search", body)
		if resp.StatusCode != want {
			t.Fatalf("body %q -> %d (want %d): %v", body, resp.StatusCode, want, out)
		}
	}
}
