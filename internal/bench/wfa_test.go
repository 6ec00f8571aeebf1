package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestWFACrossoverOverBudget: a rung whose wavefronts outgrow the E13 cap is
// reported as over budget instead of failing the experiment, while the
// cheap rungs still run to a matching score.
func TestWFACrossoverOverBudget(t *testing.T) {
	defer func(b int64) { wfaBudget = b }(wfaBudget)
	wfaBudget = 20000
	var buf bytes.Buffer
	if err := ExperimentWFACrossover(&buf, 300); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "over-budget") {
		t.Fatalf("no rung reported over budget:\n%s", out)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("no rung completed with a matching score:\n%s", out)
	}
}
