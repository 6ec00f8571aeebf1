package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fastlsa"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadPairSingleFile(t *testing.T) {
	p := writeTemp(t, "pair.fa", ">x\nACGT\n>y\nTTTT\n")
	a, b, err := loadPair([]string{p}, fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "x" || b.ID != "y" || a.String() != "ACGT" || b.String() != "TTTT" {
		t.Fatalf("loaded %v / %v", a, b)
	}
}

func TestLoadPairTwoFiles(t *testing.T) {
	p1 := writeTemp(t, "a.fa", ">a\nACGT\n")
	p2 := writeTemp(t, "b.fa", ">b\nGGCC\n")
	a, b, err := loadPair([]string{p1, p2}, fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "a" || b.ID != "b" {
		t.Fatalf("loaded %s / %s", a.ID, b.ID)
	}
}

func TestLoadPairErrors(t *testing.T) {
	if _, _, err := loadPair(nil, fastlsa.DNA); err == nil {
		t.Fatal("no args must fail")
	}
	if _, _, err := loadPair([]string{"x", "y", "z"}, fastlsa.DNA); err == nil {
		t.Fatal("three args must fail")
	}
	single := writeTemp(t, "one.fa", ">only\nACGT\n")
	if _, _, err := loadPair([]string{single}, fastlsa.DNA); err == nil {
		t.Fatal("single-record file must fail")
	}
	if _, _, err := loadPair([]string{"/nonexistent/file.fa"}, fastlsa.DNA); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestRunEndToEnd drives the full command path (flags already parsed) for
// the main configurations.
func TestRunEndToEnd(t *testing.T) {
	pair := writeTemp(t, "pair.fa", ">x\nACGTACGTACGTACGT\n>y\nACGTTCGTACGAACGT\n")
	cases := []struct {
		name              string
		algo, mode        string
		gap, open, extend int
		local, scoreOnly  bool
	}{
		{"fastlsa", "fastlsa", "global", -4, 0, 0, false, false},
		{"fm", "fm", "global", -4, 0, 0, false, false},
		{"hirschberg", "hirschberg", "global", -4, 0, 0, false, false},
		{"compact", "compact", "global", -4, 0, 0, false, false},
		{"affine", "auto", "global", -4, -6, -1, false, false},
		{"overlap", "auto", "overlap", -4, 0, 0, false, false},
		{"local", "auto", "global", -4, 0, 0, true, false},
		{"score-only", "auto", "global", -4, 0, 0, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run("dna", "", tc.algo, tc.mode, tc.gap, tc.open, tc.extend,
				1, 0, 0, 0, 0, tc.local, tc.scoreOnly, 60, true, "", []string{pair})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	pair := writeTemp(t, "pair.fa", ">x\nACGT\n>y\nTTTT\n")
	if err := run("no-such-matrix", "", "auto", "global", -4, 0, 0, 1, 0, 0, 0, 0, false, false, 60, false, "", []string{pair}); err == nil {
		t.Fatal("unknown matrix must fail")
	}
	if err := run("dna", "", "warp", "global", -4, 0, 0, 1, 0, 0, 0, 0, false, false, 60, false, "", []string{pair}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if err := run("dna", "", "auto", "diagonal", -4, 0, 0, 1, 0, 0, 0, 0, false, false, 60, false, "", []string{pair}); err == nil {
		t.Fatal("unknown mode must fail")
	}
	if err := run("dna", "klingon", "auto", "global", -4, 0, 0, 1, 0, 0, 0, 0, false, false, 60, false, "", []string{pair}); err == nil {
		t.Fatal("unknown alphabet must fail")
	}
	if err := run("dna", "", "auto", "global", 4, 0, 0, 1, 0, 0, 0, 0, false, false, 60, false, "", []string{pair}); err == nil {
		t.Fatal("positive gap must fail")
	}
	// A band of -1 (exact, FastLSA) succeeds end to end.
	if err := run("dna", "", "auto", "global", -4, 0, 0, 1, 0, 0, 0, -1, false, false, 60, false, "", []string{pair}); err != nil {
		t.Fatalf("band -1 run failed: %v", err)
	}
}

// TestRunWritesTrace checks -trace produces Chrome trace_event JSON that
// parses and carries solver spans.
func TestRunWritesTrace(t *testing.T) {
	pair := writeTemp(t, "pair.fa", ">x\nACGTACGTACGTACGT\n>y\nACGTTCGTACGAACGT\n")
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run("dna", "", "auto", "global", -4, 0, 0, 1, 0, 0, 0, 0, false, false, 60, false, out, []string{pair}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var traceback bool
	for _, ev := range tr.TraceEvents {
		if ev.Name == "traceback" && ev.Ph == "X" {
			traceback = true
		}
	}
	if !traceback {
		t.Fatalf("trace has no traceback span; %d events", len(tr.TraceEvents))
	}
}
