package stats_test

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"fastlsa/internal/stats"
)

func TestNilReceiverSafety(t *testing.T) {
	var c *stats.Counters
	for _, d := range stats.Table() {
		if d.Load(c) != 0 {
			t.Fatalf("%s: nil counters must read 0", d.Key)
		}
	}
	for id := stats.Cells; id <= stats.CheckpointRestores; id++ {
		c.Add(id, 5)
	}
	if c.RecomputationFactor(10, 10) != 0 {
		t.Fatal("nil counters factor must be 0")
	}
	if c.Snapshot() != (stats.Snapshot{}) {
		t.Fatal("nil snapshot must be zero")
	}
}

func TestCountersAccumulate(t *testing.T) {
	var c stats.Counters
	c.Add(stats.Cells, 100)
	c.Add(stats.Cells, 23)
	c.Add(stats.TracebackSteps, 7)
	c.Add(stats.BaseCases, 1)
	c.Add(stats.BaseCases, 1)
	c.Add(stats.GeneralCases, 1)
	c.Add(stats.FillTiles, 1)
	c.Add(stats.Phase1Tiles, 3)
	c.Add(stats.Phase2Tiles, 5)
	c.Add(stats.Phase3Tiles, 2)
	s := c.Snapshot()
	if s[stats.Cells] != 123 || s[stats.TracebackSteps] != 7 || s[stats.BaseCases] != 2 || s[stats.GeneralCases] != 1 {
		t.Fatalf("snapshot %v", s)
	}
	if s[stats.Phase1Tiles] != 3 || s[stats.Phase2Tiles] != 5 || s[stats.Phase3Tiles] != 2 {
		t.Fatalf("phases %v", s)
	}
	if got := c.RecomputationFactor(10, 10); got != 1.23 {
		t.Fatalf("factor = %v", got)
	}
	if !strings.Contains(s.String(), "cells=123") {
		t.Fatalf("string = %q", s.String())
	}
}

// TestTableReachesItsField checks that every row reads and writes its own
// field: a counter added under one ID shows up under that ID alone.
func TestTableReachesItsField(t *testing.T) {
	table := stats.Table()
	keys := make(map[string]bool)
	metrics := make(map[string]bool)
	for i, d := range table {
		if keys[d.Key] || (d.Metric != "" && metrics[d.Metric]) {
			t.Fatalf("row %d: duplicate key %q or metric %q", i, d.Key, d.Metric)
		}
		keys[d.Key], metrics[d.Metric] = true, true
		var c stats.Counters
		c.Add(stats.ID(i), int64(i+1))
		s := c.Snapshot()
		for j, v := range s {
			want := int64(0)
			if j == i {
				want = int64(i + 1)
			}
			if v != want {
				t.Fatalf("Add(%s) left snapshot %v", d.Key, s)
			}
		}
		if d.Load(&c) != int64(i+1) {
			t.Fatalf("%s: Load = %d", d.Key, d.Load(&c))
		}
	}
	if len(table) != len(stats.Snapshot{}) {
		t.Fatalf("table has %d rows, snapshot %d", len(table), len(stats.Snapshot{}))
	}
}

func TestSnapshotJSON(t *testing.T) {
	var c stats.Counters
	c.Add(stats.Cells, 42)
	c.Add(stats.PeakGridEntries, 9)
	raw, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int64
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	if len(got) != len(stats.Table()) || got["cells"] != 42 || got["peak_grid_entries"] != 9 {
		t.Fatalf("snapshot JSON %s", raw)
	}
}

func TestPeakKeepsMaximum(t *testing.T) {
	var c stats.Counters
	c.Add(stats.PeakGridEntries, 10)
	c.Add(stats.PeakGridEntries, 5)
	c.Add(stats.PeakGridEntries, 20)
	c.Add(stats.PeakGridEntries, 15)
	if got := c.PeakGridEntries.Load(); got != 20 {
		t.Fatalf("peak = %d", got)
	}
}

func TestDeriveAddsToParents(t *testing.T) {
	var root stats.Counters
	run := root.Derive(context.Background()).Derive(context.Background())
	run.Add(stats.Cells, 7)
	run.Add(stats.PeakGridEntries, 3)
	if root.Cells.Load() != 7 || root.PeakGridEntries.Load() != 3 || run.Cells.Load() != 7 {
		t.Fatalf("root %v, run %v", root.Snapshot(), run.Snapshot())
	}
}

func TestAddAllocatesNothing(t *testing.T) {
	c := (&stats.Counters{}).Derive(context.Background())
	if n := testing.AllocsPerRun(100, func() {
		c.Add(stats.Cells, 64)
		c.Add(stats.PeakGridEntries, 64)
	}); n != 0 {
		t.Fatalf("Add allocates %v objects per run", n)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c stats.Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(stats.Cells, 1)
				c.Add(stats.PeakGridEntries, int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Cells.Load() != 8000 {
		t.Fatalf("cells = %d", c.Cells.Load())
	}
	if c.PeakGridEntries.Load() != 999 {
		t.Fatalf("peak = %d", c.PeakGridEntries.Load())
	}
}
