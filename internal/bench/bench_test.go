package bench_test

import (
	"bytes"
	"strings"
	"testing"

	"fastlsa/internal/bench"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

func TestWorkloadGeneration(t *testing.T) {
	for _, wl := range bench.Table3Workloads(false) {
		a, b, err := wl.Generate()
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if a.Len() != wl.Length {
			t.Fatalf("%s: reference length %d, want %d", wl.Name, a.Len(), wl.Length)
		}
		if b.Len() == 0 {
			t.Fatalf("%s: empty partner", wl.Name)
		}
		if wl.Matrix() == nil {
			t.Fatalf("%s: nil matrix", wl.Name)
		}
	}
	// The large ladder extends the small one.
	small := len(bench.Table3Workloads(false))
	large := len(bench.Table3Workloads(true))
	if large <= small {
		t.Fatalf("large ladder (%d) not larger than small (%d)", large, small)
	}
}

func TestRunEnginesAgree(t *testing.T) {
	wl := bench.Workload{Name: "t", Length: 400, Alphabet: seq.DNA, Seed: 9}
	a, b, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var ref int64
	for i, cfg := range []bench.Config{
		{Engine: bench.EngineFM},
		{Engine: bench.EngineHirschberg},
		{Engine: bench.EngineFastLSA, K: 4, BaseCells: 256},
		{Engine: bench.EngineFMParallel, Workers: 4},
		{Engine: bench.EngineFastLSA, K: 4, BaseCells: 256, Workers: 4},
	} {
		m := bench.Run(a, b, wl.Matrix(), cfg)
		if m.Err != nil {
			t.Fatalf("%s: %v", cfg.Engine, m.Err)
		}
		if i == 0 {
			ref = m.Score
		} else if m.Score != ref {
			t.Fatalf("%s: score %d != %d", cfg.Engine, m.Score, ref)
		}
		if m.Stats[stats.Cells] == 0 {
			t.Fatalf("%s: no cells recorded", cfg.Engine)
		}
		if m.Duration <= 0 {
			t.Fatalf("%s: no duration", cfg.Engine)
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	wl := bench.Workload{Name: "t", Length: 10, Alphabet: seq.DNA, Seed: 1}
	a, b, _ := wl.Generate()
	if m := bench.Run(a, b, wl.Matrix(), bench.Config{Engine: "nope"}); m.Err == nil {
		t.Fatal("unknown engine must fail")
	}
}

func TestRunBudgeted(t *testing.T) {
	wl := bench.Workload{Name: "t", Length: 600, Alphabet: seq.DNA, Seed: 10}
	a, b, _ := wl.Generate()
	m := bench.Run(a, b, wl.Matrix(), bench.Config{
		Engine: bench.EngineFastLSA, K: 4, BaseCells: 1024, Budget: 200_000,
	})
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if m.PeakMem <= 0 || m.PeakMem > 200_000 {
		t.Fatalf("peak = %d", m.PeakMem)
	}
}

func TestTableRendering(t *testing.T) {
	tab := bench.NewTable("demo", "col", "value")
	tab.AddRow("x", 1)
	tab.AddRow("longer-label", 3.14159)
	tab.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"== demo ==", "col", "value", "x", "longer-label", "3.14", "# note 7"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in:\n%s", frag, out)
		}
	}
}

// TestExperimentsSmoke runs the fast experiments end-to-end at reduced sizes
// to keep the integration path exercised in CI.
func TestExperimentsSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := bench.ExperimentExample(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "82") {
		t.Fatal("example missing the paper score")
	}
	if err := bench.ExperimentOpCounts(&buf, []int{300}, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := bench.ExperimentKSweep(&buf, 500, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := bench.ExperimentMemSweep(&buf, 500); err != nil {
		t.Fatal(err)
	}
	if err := bench.ExperimentSpeedup(&buf, []int{400}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := bench.ExperimentTileSweep(&buf, 600, 2); err != nil {
		t.Fatal(err)
	}
	if err := bench.ExperimentVariants(&buf, 400); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestMeasurementHelpers(t *testing.T) {
	m := bench.Measurement{}
	if m.CellsPerSecond() != 0 {
		t.Fatal("zero-duration throughput must be 0")
	}
	wl := bench.Workload{Name: "gap", Length: 50, Alphabet: seq.Protein, Seed: 2}
	a, b, _ := wl.Generate()
	// Explicit gap override flows through.
	res := bench.Run(a, b, scoring.BLOSUM62, bench.Config{Engine: bench.EngineFM, Gap: scoring.Affine(-10, -1)})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}
