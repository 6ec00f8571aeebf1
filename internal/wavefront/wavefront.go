// Package wavefront implements the diagonal-wavefront parallel execution
// substrate of the paper's §5 (Figures 7 and 13): a rectangular grid of
// tiles, where tile (r,c) depends on its left neighbour (r,c-1) and its up
// neighbour (r-1,c), executed by a fixed pool of P workers. Tiles on the same
// anti-diagonal are independent and run in parallel.
//
// The package also provides the phase accounting of Figure 13: wavefront
// lines (anti-diagonals) holding fewer than P tiles at the start form phase
// 1 (ramp-up), trailing lines with fewer than P tiles form phase 3
// (ramp-down), and the saturated middle is phase 2 — the "true parallel
// phase" of the paper's Theorem 4 analysis.
package wavefront

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrTilePanic is the sentinel wrapped by the error Run returns when a tile's
// Exec panicked. The panic is confined to that run: the worker that caught it
// keeps draining (so the dependency counters never wedge), the remaining
// tiles are cancelled, and Run returns normally — callers' deferred cleanup
// (budget releases, pool returns) executes as for any other tile error.
var ErrTilePanic = errors.New("wavefront: tile panicked")

// PanicError is the error Run returns for a panicking tile. It wraps
// ErrTilePanic (test with errors.Is) and carries the tile, the recovered
// value and the goroutine stack at the point of the panic.
type PanicError struct {
	// R, C locate the tile that panicked.
	R, C int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("wavefront: tile (%d,%d) panicked: %v", e.R, e.C, e.Value)
}

// Unwrap makes errors.Is(err, ErrTilePanic) work through the chain.
func (e *PanicError) Unwrap() error { return ErrTilePanic }

// Grid describes a tile grid execution.
type Grid struct {
	// Rows and Cols give the tile-grid dimensions (both >= 1).
	Rows, Cols int
	// Workers is the number of parallel workers P (<= 0 selects GOMAXPROCS).
	Workers int
	// Skip, when non-nil, marks tiles that must not be executed. Skipped
	// tiles are treated as instantly complete for dependency purposes
	// (FastLSA skips the tiles of the bottom-right block during Fill Cache).
	Skip func(r, c int) bool
	// Exec runs tile (r, c) on the 0-based worker lane worker (run tracing
	// attributes tiles to workers by it, without per-tile goroutine
	// lookups). It is called at most once per non-skipped tile, possibly
	// concurrently with other tiles on the same wavefront line. The first
	// error cancels the run: no new tiles start, and Run returns that error
	// after in-flight tiles finish.
	Exec func(worker, r, c int) error
}

// Run executes the grid and returns the first tile error, if any.
func (g *Grid) Run() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("wavefront: grid %dx%d must be at least 1x1", g.Rows, g.Cols)
	}
	if g.Exec == nil {
		return fmt.Errorf("wavefront: nil Exec")
	}
	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := g.Rows * g.Cols
	if workers > total {
		workers = total
	}

	// Per-tile remaining-dependency counters.
	deps := make([]int32, total)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			var d int32
			if r > 0 {
				d++
			}
			if c > 0 {
				d++
			}
			deps[r*g.Cols+c] = d
		}
	}

	ready := make(chan int, total)
	ready <- 0 // tile (0,0)

	var (
		firstErr  atomic.Value
		cancelled atomic.Bool
		done      atomic.Int64
		wg        sync.WaitGroup
	)

	// exec runs one tile with panic isolation: a panicking Exec must not take
	// down the process (the pool goroutines are not covered by any caller's
	// recover) and must not skip the completion bookkeeping below, or the
	// dependency counters would never drain and Run would hang.
	exec := func(lane, r, c int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{R: r, C: c, Value: v, Stack: debug.Stack()}
			}
		}()
		return g.Exec(lane, r, c)
	}

	complete := func(idx int) {
		// Release dependents; enqueue any that become ready.
		r, c := idx/g.Cols, idx%g.Cols
		if c+1 < g.Cols {
			if atomic.AddInt32(&deps[idx+1], -1) == 0 {
				ready <- idx + 1
			}
		}
		if r+1 < g.Rows {
			if atomic.AddInt32(&deps[idx+g.Cols], -1) == 0 {
				ready <- idx + g.Cols
			}
		}
		if done.Add(1) == int64(total) {
			close(ready)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for idx := range ready {
				r, c := idx/g.Cols, idx%g.Cols
				skipped := g.Skip != nil && g.Skip(r, c)
				if !skipped && !cancelled.Load() {
					if err := exec(lane, r, c); err != nil {
						if cancelled.CompareAndSwap(false, true) {
							firstErr.Store(err)
						}
					}
				}
				complete(idx)
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// Phases classifies the grid's wavefront lines into the three phases of
// Figure 13 for P workers, counting only non-skipped tiles.
type Phases struct {
	// Lines1, Lines2, Lines3 count wavefront lines per phase.
	Lines1, Lines2, Lines3 int
	// Tiles1, Tiles2, Tiles3 count tiles per phase.
	Tiles1, Tiles2, Tiles3 int64
}

// Total reports the total non-skipped tile count.
func (p Phases) Total() int64 { return p.Tiles1 + p.Tiles2 + p.Tiles3 }

// PhaseOfDiagonal reports which Figure 13 phase anti-diagonal d of a grid
// with the given diagonal count belongs to (1 ramp-up, 2 saturated, 3
// ramp-down). The phases are contiguous diagonal ranges by construction, so
// the first Lines1 diagonals are phase 1 and the last Lines3 are phase 3.
func (p Phases) PhaseOfDiagonal(d, diagonals int) int {
	if d < p.Lines1 {
		return 1
	}
	if d >= diagonals-p.Lines3 {
		return 3
	}
	return 2
}

// ClassifyPhases computes the Figure 13 phase decomposition: the leading
// anti-diagonals holding fewer than P tiles form phase 1, the trailing ones
// with fewer than P tiles form phase 3, and everything between is phase 2.
// Empty diagonals (all tiles skipped) at the edges belong to the adjacent
// ramp phase.
func ClassifyPhases(rows, cols, workers int, skip func(r, c int) bool) Phases {
	if workers < 1 {
		workers = 1
	}
	nd := rows + cols - 1
	counts := make([]int64, nd)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if skip != nil && skip(r, c) {
				continue
			}
			counts[r+c]++
		}
	}
	var p Phases
	lo := 0
	for lo < nd && counts[lo] < int64(workers) {
		p.Lines1++
		p.Tiles1 += counts[lo]
		lo++
	}
	hi := nd - 1
	for hi >= lo && counts[hi] < int64(workers) {
		p.Lines3++
		p.Tiles3 += counts[hi]
		hi--
	}
	for d := lo; d <= hi; d++ {
		p.Lines2++
		p.Tiles2 += counts[d]
	}
	return p
}
