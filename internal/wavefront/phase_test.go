package wavefront

import (
	"sync"
	"testing"
)

func TestPhaseOfDiagonal(t *testing.T) {
	// 6x6 grid, 3 workers: diagonals 0,1 hold 1,2 tiles (phase 1), diagonals
	// 9,10 hold 2,1 (phase 3), everything between is saturated (phase 2).
	p := ClassifyPhases(6, 6, 3, nil)
	nd := 6 + 6 - 1
	var tiles [4]int64
	for d := 0; d < nd; d++ {
		lo, hi := d-5, d
		if lo < 0 {
			lo = 0
		}
		if hi > 5 {
			hi = 5
		}
		tiles[p.PhaseOfDiagonal(d, nd)] += int64(hi - lo + 1)
	}
	if tiles[1] != p.Tiles1 || tiles[2] != p.Tiles2 || tiles[3] != p.Tiles3 {
		t.Errorf("per-diagonal phases give tiles %v, want %d/%d/%d",
			tiles[1:], p.Tiles1, p.Tiles2, p.Tiles3)
	}
	if p.PhaseOfDiagonal(0, nd) != 1 || p.PhaseOfDiagonal(nd-1, nd) != 3 {
		t.Error("edge diagonals not in ramp phases")
	}
	if p.PhaseOfDiagonal(nd/2, nd) != 2 {
		t.Error("middle diagonal not in saturated phase")
	}
}

func TestExecReceivesWorkerLanes(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	lanes := map[int]int{}
	g := &Grid{
		Rows: 16, Cols: 16, Workers: workers,
		Exec: func(w, r, c int) error {
			mu.Lock()
			lanes[w]++
			mu.Unlock()
			return nil
		},
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	var total int
	for w, n := range lanes {
		if w < 0 || w >= workers {
			t.Errorf("worker lane %d out of range [0,%d)", w, workers)
		}
		total += n
	}
	if total != 16*16 {
		t.Errorf("executed %d tiles, want 256", total)
	}
}
