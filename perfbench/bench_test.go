package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"fastlsa"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeWorkloads runs every workload, including align-divergence, which
// BENCHMARK.json leaves out, at its seconds-long smoke size through a freshly
// built server, untraced and traced, and checks that each result is correct
// and carries exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fastlsa-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fastlsa-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: wl, seed: 7, seconds: 1, trace: trace,
				server: bin, work: dir, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", wl, trace, name, got.Unit, unit)
				}
			}
		}
	}
}

// TestRescoreMatchesAligner pins the benchmark's own CIGAR scorer against
// the library under both gap models.
func TestRescoreMatchesAligner(t *testing.T) {
	dna, err := fastlsa.MatrixByName("dna")
	if err != nil {
		t.Fatal(err)
	}
	blosum, err := fastlsa.MatrixByName("blosum62")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alpha *fastlsa.Alphabet
		m     *fastlsa.Matrix
		gap   fastlsa.Gap
	}{
		{fastlsa.DNA, dna, fastlsa.Linear(-4)},
		{fastlsa.Protein, blosum, fastlsa.Affine(-11, -1)},
	}
	for _, c := range cases {
		a, b, err := fastlsa.HomologousPair(400, c.alpha, divergenceModel(0.2), 3)
		if err != nil {
			t.Fatal(err)
		}
		al, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: c.m, Gap: c.gap})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rescore(al.Path.CIGAR(), a.Residues, b.Residues, c.m, c.gap)
		if err != nil {
			t.Fatal(err)
		}
		if got != al.Score {
			t.Errorf("%s: rescored %d, aligner %d", c.m.Name, got, al.Score)
		}
		if _, err := rescore("1M", a.Residues, b.Residues, c.m, c.gap); err == nil {
			t.Errorf("%s: a CIGAR that does not cover the pair was accepted", c.m.Name)
		}
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{15, 0.5}, {100, 0.90}, {280, 0.95}, {1651, 0.99}, {16000, 0.999}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
