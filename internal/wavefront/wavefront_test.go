package wavefront_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fastlsa/internal/wavefront"
)

// TestRunRespectsDependencies executes a grid and records completion order;
// every tile must complete after its up and left neighbours.
func TestRunRespectsDependencies(t *testing.T) {
	const rows, cols = 13, 9
	var mu sync.Mutex
	order := make(map[[2]int]int)
	step := 0
	g := &wavefront.Grid{
		Rows:    rows,
		Cols:    cols,
		Workers: 4,
		Exec: func(_, r, c int) error {
			mu.Lock()
			order[[2]int{r, c}] = step
			step++
			mu.Unlock()
			return nil
		},
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != rows*cols {
		t.Fatalf("executed %d tiles, want %d", len(order), rows*cols)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r > 0 && order[[2]int{r - 1, c}] > order[[2]int{r, c}] {
				t.Fatalf("tile (%d,%d) ran before its up-dependency", r, c)
			}
			if c > 0 && order[[2]int{r, c - 1}] > order[[2]int{r, c}] {
				t.Fatalf("tile (%d,%d) ran before its left-dependency", r, c)
			}
		}
	}
}

func TestRunSkip(t *testing.T) {
	var count atomic.Int64
	skip := func(r, c int) bool { return r >= 2 && c >= 2 }
	g := &wavefront.Grid{
		Rows: 4, Cols: 4, Workers: 3,
		Skip: skip,
		Exec: func(_, r, c int) error {
			if skip(r, c) {
				t.Errorf("skipped tile (%d,%d) executed", r, c)
			}
			count.Add(1)
			return nil
		},
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 12 {
		t.Fatalf("executed %d tiles, want 12", count.Load())
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	g := &wavefront.Grid{
		Rows: 20, Cols: 20, Workers: 4,
		Exec: func(_, r, c int) error {
			if r == 1 && c == 1 {
				return boom
			}
			after.Add(1)
			return nil
		},
	}
	err := g.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	// Cancellation is best-effort but must prevent most of the grid.
	if after.Load() == 20*20-1 {
		t.Fatal("cancellation had no effect")
	}
}

func TestRunValidation(t *testing.T) {
	if err := (&wavefront.Grid{Rows: 0, Cols: 3, Exec: func(int, int, int) error { return nil }}).Run(); err == nil {
		t.Fatal("0 rows must fail")
	}
	if err := (&wavefront.Grid{Rows: 3, Cols: 3}).Run(); err == nil {
		t.Fatal("nil Exec must fail")
	}
}

func TestRunSingleTile(t *testing.T) {
	ran := false
	g := &wavefront.Grid{Rows: 1, Cols: 1, Workers: 8, Exec: func(_, r, c int) error {
		ran = true
		return nil
	}}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single tile did not run")
	}
}

// TestClassifyPhasesFigure13 reproduces the paper's Figure 13 configuration:
// P=8 workers, k=6, u=2, v=3 gives a 12x18 tile grid whose bottom-right
// block (2x3 tiles) is skipped. Phase 1 must hold P(P-1)/2 = 28 tiles
// (wavefront lines of 1..P-1 tiles) and the phase partition must cover all
// R*C - u*v tiles.
func TestClassifyPhasesFigure13(t *testing.T) {
	const P, k, u, v = 8, 6, 2, 3
	R, C := k*u, k*v
	skip := func(r, c int) bool { return r >= (k-1)*u && c >= (k-1)*v }
	ph := wavefront.ClassifyPhases(R, C, P, skip)
	if ph.Total() != int64(R*C-u*v) {
		t.Fatalf("total = %d, want %d", ph.Total(), R*C-u*v)
	}
	if ph.Tiles1 != P*(P-1)/2 {
		t.Fatalf("phase 1 tiles = %d, want %d", ph.Tiles1, P*(P-1)/2)
	}
	if ph.Lines1 != P-1 {
		t.Fatalf("phase 1 lines = %d, want %d", ph.Lines1, P-1)
	}
	// Theorem 4's lower bound for phase 3: at least P(P-1)/2 - u*v tiles.
	if ph.Tiles3 < int64(P*(P-1)/2-u*v) {
		t.Fatalf("phase 3 tiles = %d, below the paper's lower bound %d", ph.Tiles3, P*(P-1)/2-u*v)
	}
	if ph.Tiles2 <= 0 {
		t.Fatal("saturated phase must be non-empty for this configuration")
	}
}

func TestClassifyPhasesSmallGrid(t *testing.T) {
	// Grid narrower than P: everything is ramp (no phase 2).
	ph := wavefront.ClassifyPhases(3, 3, 8, nil)
	if ph.Tiles2 != 0 {
		t.Fatalf("phase 2 tiles = %d, want 0", ph.Tiles2)
	}
	if ph.Total() != 9 {
		t.Fatalf("total = %d", ph.Total())
	}
}

// TestClassifyPhasesQuick: the phase decomposition always covers exactly the
// non-skipped tiles, for arbitrary grid shapes and worker counts.
func TestClassifyPhasesQuick(t *testing.T) {
	f := func(r8, c8, p8 uint8) bool {
		rows := int(r8%20) + 1
		cols := int(c8%20) + 1
		p := int(p8%16) + 1
		ph := wavefront.ClassifyPhases(rows, cols, p, nil)
		return ph.Total() == int64(rows*cols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunManyWorkers exercises worker counts exceeding the tile count.
func TestRunManyWorkers(t *testing.T) {
	var n atomic.Int64
	g := &wavefront.Grid{Rows: 2, Cols: 2, Workers: 64, Exec: func(_, r, c int) error {
		n.Add(1)
		return nil
	}}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 4 {
		t.Fatalf("executed %d", n.Load())
	}
}

// TestRunTilePanicIsolated: a panic inside one tile must fail the run with a
// PanicError wrapping ErrTilePanic — never crash the process or wedge the
// scheduler — and the remaining tiles must be cancelled, not executed.
func TestRunTilePanicIsolated(t *testing.T) {
	var executed atomic.Int64
	g := &wavefront.Grid{Rows: 8, Cols: 8, Workers: 4, Exec: func(_, r, c int) error {
		if r == 2 && c == 2 {
			panic("injected tile failure")
		}
		executed.Add(1)
		return nil
	}}
	err := g.Run()
	if err == nil {
		t.Fatal("panicking tile produced no error")
	}
	if !errors.Is(err, wavefront.ErrTilePanic) {
		t.Fatalf("error %v does not wrap ErrTilePanic", err)
	}
	var pe *wavefront.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError", err)
	}
	if pe.R != 2 || pe.C != 2 {
		t.Errorf("panic attributed to tile (%d,%d), want (2,2)", pe.R, pe.C)
	}
	if pe.Value != "injected tile failure" || len(pe.Stack) == 0 {
		t.Errorf("PanicError value/stack not captured: %v / %d bytes", pe.Value, len(pe.Stack))
	}
	// Cancellation: the 38 tiles strictly dependent on (2,2) can never run,
	// and in-flight-or-later tiles may be shed; all that is guaranteed is
	// progress stopped early and Run still returned (no wedge).
	if n := executed.Load(); n >= 8*8-1 {
		t.Errorf("executed %d tiles after a panic at (2,2)", n)
	}

	// The scheduler is per-run state: a fresh run on the same shape must be
	// unaffected by the previous panic.
	var n atomic.Int64
	g2 := &wavefront.Grid{Rows: 8, Cols: 8, Workers: 4, Exec: func(_, r, c int) error {
		n.Add(1)
		return nil
	}}
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 64 {
		t.Fatalf("follow-up run executed %d tiles, want 64", n.Load())
	}
}
