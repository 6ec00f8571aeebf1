package core_test

import (
	"encoding/json"
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// TestAlignTraceSpans is the acceptance check for run tracing: a parallel
// FastLSA run with a trace attached must emit general-case, base-case,
// grid-fill, fill-tile (phase-tagged 1..3) and traceback spans, and the
// Chrome export must round-trip through encoding/json.
func TestAlignTraceSpans(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	a, b := testutil.HomologousPair(600, seq.DNA, 7)

	tr := obs.NewTrace(0)
	tr.SetLabel("core-trace-test")
	res, err := core.Align(a, b, m, gap, core.Options{
		K: 16, BaseCells: 256, Workers: 4,
		ParallelFillCells: 1, // force the parallel fill path
		Obs:               obs.Run{Trace: tr},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The traced run must match an untraced one exactly.
	want, err := core.Align(a, b, m, gap, core.Options{K: 4, BaseCells: 256, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score {
		t.Errorf("traced score %d != untraced %d", res.Score, want.Score)
	}

	byName := map[string]int64{}
	phases := map[int]int64{}
	workers := map[int]bool{}
	for _, row := range tr.Totals() {
		byName[row.Name] += row.Count
		if row.Name == obs.SpanFillTile {
			phases[row.Phase] += row.Count
		}
	}
	for _, sp := range tr.Spans() {
		if sp.Name == obs.SpanFillTile {
			workers[sp.Tags.Worker] = true
		}
	}
	for _, name := range []string{
		obs.SpanGeneralCase, obs.SpanBaseCase, obs.SpanGridFill,
		obs.SpanFillTile, obs.SpanTraceback,
	} {
		if byName[name] == 0 {
			t.Errorf("no %q spans recorded (totals: %v)", name, byName)
		}
	}
	// Every fill ran on the wavefront, whose tiles are traced as fill-tile
	// spans only.
	if byName[obs.SpanFillBlock] != 0 {
		t.Errorf("parallel run recorded %d fill-block spans", byName[obs.SpanFillBlock])
	}
	// A 16x16 tile wavefront under 4 workers has all three Figure 13 phases.
	for phase := 1; phase <= 3; phase++ {
		if phases[phase] == 0 {
			t.Errorf("no phase-%d fill-tile spans (phases: %v)", phase, phases)
		}
	}
	// Worker-lane attribution: every tile carries a lane in [1, Workers].
	// How many distinct lanes actually claim tiles depends on the machine
	// (on one CPU a single goroutine can legitimately drain the whole
	// wavefront), so only the tag range is asserted.
	if len(workers) == 0 {
		t.Error("no fill-tile spans carry a worker lane")
	}
	for w := range workers {
		if w < 1 || w > 4 {
			t.Errorf("worker lane %d out of range [1, 4]", w)
		}
	}

	// Chrome export: valid JSON with the span vocabulary present.
	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("Chrome trace does not round-trip through encoding/json: %v", err)
	}
	exported := map[string]bool{}
	phaseTagged := false
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		exported[ev.Name] = true
		if ev.Name == obs.SpanFillTile && ev.Args["phase"] != nil {
			phaseTagged = true
		}
	}
	for _, name := range []string{
		obs.SpanGeneralCase, obs.SpanBaseCase, obs.SpanFillTile, obs.SpanTraceback,
	} {
		if !exported[name] {
			t.Errorf("Chrome export missing %q events", name)
		}
	}
	if !phaseTagged {
		t.Error("Chrome export has no phase-tagged fill-tile events")
	}
}

// TestAlignSequentialTrace checks that a sequential run still records the
// recursion-level spans (fill blocks instead of tiles).
func TestAlignSequentialTrace(t *testing.T) {
	gap := scoring.Linear(-4)
	a, b := testutil.HomologousPair(300, seq.DNA, 11)

	tr := obs.NewTrace(0)
	if _, err := core.Align(a, b, scoring.DNASimple, gap, core.Options{
		K: 4, BaseCells: 256, Workers: 1, Obs: obs.Run{Trace: tr},
	}); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, row := range tr.Totals() {
		byName[row.Name] += row.Count
	}
	for _, name := range []string{
		obs.SpanGeneralCase, obs.SpanBaseCase, obs.SpanGridFill,
		obs.SpanFillBlock, obs.SpanTraceback,
	} {
		if byName[name] == 0 {
			t.Errorf("no %q spans recorded (totals: %v)", name, byName)
		}
	}
	if byName[obs.SpanFillTile] != 0 {
		t.Errorf("sequential run recorded %d fill-tile spans", byName[obs.SpanFillTile])
	}
}
