package stats_test

import (
	"strings"
	"sync"
	"testing"

	"fastlsa/internal/stats"
)

func TestNilReceiverSafety(t *testing.T) {
	var c *stats.Counters
	c.AddCells(10)
	c.AddTraceback(1)
	c.AddBaseCase()
	c.AddGeneralCase()
	c.AddFillTile()
	c.AddPhaseTiles(1, 5)
	c.ObserveGridEntries(9)
	if c.RecomputationFactor(10, 10) != 0 {
		t.Fatal("nil counters factor must be 0")
	}
	if c.Snapshot() != (stats.Snapshot{}) {
		t.Fatal("nil snapshot must be zero")
	}
}

func TestCountersAccumulate(t *testing.T) {
	var c stats.Counters
	c.AddCells(100)
	c.AddCells(23)
	c.AddTraceback(7)
	c.AddBaseCase()
	c.AddBaseCase()
	c.AddGeneralCase()
	c.AddFillTile()
	c.AddPhaseTiles(1, 3)
	c.AddPhaseTiles(2, 5)
	c.AddPhaseTiles(3, 2)
	c.AddPhaseTiles(9, 100) // unknown phase ignored
	s := c.Snapshot()
	if s.Cells != 123 || s.TracebackSteps != 7 || s.BaseCases != 2 || s.GeneralCases != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Phase1Tiles != 3 || s.Phase2Tiles != 5 || s.Phase3Tiles != 2 {
		t.Fatalf("phases %+v", s)
	}
	if got := c.RecomputationFactor(10, 10); got != 1.23 {
		t.Fatalf("factor = %v", got)
	}
	if !strings.Contains(s.String(), "cells=123") {
		t.Fatalf("string = %q", s.String())
	}
}

func TestObserveGridEntriesMonotone(t *testing.T) {
	var c stats.Counters
	c.ObserveGridEntries(10)
	c.ObserveGridEntries(5)
	c.ObserveGridEntries(20)
	c.ObserveGridEntries(15)
	if got := c.PeakGridEntries.Load(); got != 20 {
		t.Fatalf("peak = %d", got)
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
				c.AddCells(1)
				c.ObserveGridEntries(int64(i))
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
