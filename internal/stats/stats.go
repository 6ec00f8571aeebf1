// Package stats provides the per-run instrumentation and run control shared
// by every algorithm in the repository: DP-cell counters, derived quantities
// such as the recomputation factor that Theorems 1-4 of the paper bound
// analytically, and a cheap cancellation poll that the fill kernels consult
// between row sweeps so an abandoned run stops computing. All counters are safe for concurrent use and all methods are
// nil-receiver safe, so uninstrumented runs pay (almost) nothing.
package stats

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Counters accumulates the work performed by one alignment run.
type Counters struct {
	// Cells counts DP matrix entries computed (the paper's unit of work).
	Cells atomic.Int64
	// TracebackSteps counts FindPath moves produced.
	TracebackSteps atomic.Int64
	// BaseCases counts FastLSA base-case invocations.
	BaseCases atomic.Int64
	// GeneralCases counts FastLSA general-case invocations.
	GeneralCases atomic.Int64
	// FillTiles counts tiles executed by parallel fill phases.
	FillTiles atomic.Int64
	// PeakGridEntries tracks the maximum number of grid-cache entries live
	// at once (FastLSA space accounting).
	PeakGridEntries atomic.Int64
	// Phase1Tiles, Phase2Tiles, Phase3Tiles classify wavefront tiles into
	// the three phases of Figure 13 (ramp-up diagonals with < P tiles,
	// saturated middle, ramp-down).
	Phase1Tiles, Phase2Tiles, Phase3Tiles atomic.Int64
	// MeshShrinks counts parallel fills whose transient tile mesh was shrunk
	// below the requested (u, v) subdivision to fit the memory budget.
	MeshShrinks atomic.Int64
	// PlannedFillTiles and ExecutedFillTiles compare the tile grid the
	// requested (u, v) subdivision would have run against the grid that
	// actually ran after budget-driven shrinking. Equal values mean no fill
	// was degraded.
	PlannedFillTiles, ExecutedFillTiles atomic.Int64
	// SearchScanned counts database entries considered by corpus searches
	// (the index probe's scan, or every entry on a brute-force scan).
	SearchScanned atomic.Int64
	// SearchCandidates counts entries that survived the q-gram seed filter.
	// SearchCandidates / SearchScanned is the filter selectivity.
	SearchCandidates atomic.Int64
	// SearchExamined counts entries actually scored by the exact kernel at
	// the verify stage (candidates minus early-abandoned ones).
	SearchExamined atomic.Int64
	// CheckpointSaves counts grid-cache snapshots persisted through an
	// Options.Checkpoint sink (one per completed block-row of the root fill).
	CheckpointSaves atomic.Int64
	// CheckpointRestores counts runs that seeded their root grid cache from
	// a checkpoint: a restored run recomputes strictly fewer cells than a
	// cold one, which is the durability layer's whole point.
	CheckpointRestores atomic.Int64

	// cancelDone and cancelCtx carry the run's cancellation signal
	// (AttachContext). The kernels poll Cancelled between row sweeps; a nil
	// channel means the run can never be cancelled.
	cancelDone <-chan struct{}
	cancelCtx  context.Context

	// parent, when non-nil, receives a copy of every count recorded here
	// (Derive). It never carries a cancellation signal for this run, so a
	// Counters shared by concurrent runs stays race-free.
	parent *Counters
}

// Derive returns a per-run child of c bound to ctx's cancellation signal.
// Counts recorded on the child also accumulate into c (atomically, so c may
// be shared by many concurrent runs), but the cancellation signal stays
// private to the child: concurrent runs sharing c never observe each other's
// contexts, and c itself is never written. A nil receiver yields a free-
// standing child, counting only for itself.
func (c *Counters) Derive(ctx context.Context) *Counters {
	child := &Counters{parent: c}
	child.AttachContext(ctx)
	return child
}

// AttachContext registers ctx's cancellation signal with the counters, so
// every fill kernel the counters are threaded through aborts promptly (with
// ctx.Err()) once ctx is cancelled or its deadline passes. It is an
// unsynchronized write: attach before the run starts, and never to a
// Counters shared with concurrent runs — for those, attach to a per-run
// child from Derive instead. A nil ctx, or one that can never be cancelled,
// detaches.
func (c *Counters) AttachContext(ctx context.Context) {
	if c == nil {
		return
	}
	if ctx == nil || ctx.Done() == nil {
		c.cancelDone, c.cancelCtx = nil, nil
		return
	}
	c.cancelDone, c.cancelCtx = ctx.Done(), ctx
}

// Cancelled reports whether the attached context has been cancelled,
// returning its error (context.Canceled or context.DeadlineExceeded) if so.
// It is a single non-blocking channel poll — cheap enough for once-per-row
// use in the DP kernels — and nil-receiver safe.
func (c *Counters) Cancelled() error {
	if c == nil || c.cancelDone == nil {
		return nil
	}
	select {
	case <-c.cancelDone:
		return c.cancelCtx.Err()
	default:
		return nil
	}
}

// PollTargetCells is the shared cancellation-poll cadence: every DP fill
// loop performs one Cancelled check per ~8Ki computed cells, so poll overhead
// and cancellation latency are uniform across kernels regardless of row
// shape.
const PollTargetCells = 8192

// Poll is a cell-countdown cancellation poller, the one helper every fill
// loop in the repository uses. Tick it with the number of cells just
// computed (typically once per row sweep); it performs a Cancelled check
// each time PollTargetCells cells have accumulated. The zero Poll of a nil
// *Counters is valid and never cancels.
type Poll struct {
	c    *Counters
	left int64
}

// StartPoll returns a poller bound to c's cancellation signal, primed to
// perform its first check after PollTargetCells cells.
func (c *Counters) StartPoll() Poll {
	return Poll{c: c, left: PollTargetCells}
}

// Tick records that n more cells were computed and polls Cancelled once per
// PollTargetCells accumulated cells, returning the context error when the
// run was cancelled.
func (p *Poll) Tick(n int) error {
	p.left -= int64(n)
	if p.left > 0 {
		return nil
	}
	p.left = PollTargetCells
	return p.c.Cancelled()
}

// AddCells records n DP entries computed.
func (c *Counters) AddCells(n int64) {
	for ; c != nil; c = c.parent {
		c.Cells.Add(n)
	}
}

// AddTraceback records n traceback steps.
func (c *Counters) AddTraceback(n int64) {
	for ; c != nil; c = c.parent {
		c.TracebackSteps.Add(n)
	}
}

// AddBaseCase records a FastLSA base-case solve.
func (c *Counters) AddBaseCase() {
	for ; c != nil; c = c.parent {
		c.BaseCases.Add(1)
	}
}

// AddGeneralCase records a FastLSA general-case split.
func (c *Counters) AddGeneralCase() {
	for ; c != nil; c = c.parent {
		c.GeneralCases.Add(1)
	}
}

// AddFillTile records one executed wavefront tile.
func (c *Counters) AddFillTile() {
	for ; c != nil; c = c.parent {
		c.FillTiles.Add(1)
	}
}

// AddPhaseTiles classifies cnt tiles into wavefront phase p (1, 2 or 3).
func (c *Counters) AddPhaseTiles(p int, cnt int64) {
	for ; c != nil; c = c.parent {
		switch p {
		case 1:
			c.Phase1Tiles.Add(cnt)
		case 2:
			c.Phase2Tiles.Add(cnt)
		case 3:
			c.Phase3Tiles.Add(cnt)
		}
	}
}

// AddMeshShrink records one parallel fill whose tile mesh was shrunk to fit
// the budget.
func (c *Counters) AddMeshShrink() {
	for ; c != nil; c = c.parent {
		c.MeshShrinks.Add(1)
	}
}

// AddPlannedFillTiles records the tile count of the requested tiling.
func (c *Counters) AddPlannedFillTiles(n int64) {
	for ; c != nil; c = c.parent {
		c.PlannedFillTiles.Add(n)
	}
}

// AddExecutedFillTiles records the tile count of the tiling that ran.
func (c *Counters) AddExecutedFillTiles(n int64) {
	for ; c != nil; c = c.parent {
		c.ExecutedFillTiles.Add(n)
	}
}

// AddSearchScanned records n database entries considered by a corpus scan.
func (c *Counters) AddSearchScanned(n int64) {
	for ; c != nil; c = c.parent {
		c.SearchScanned.Add(n)
	}
}

// AddSearchCandidates records n entries surviving the seed filter.
func (c *Counters) AddSearchCandidates(n int64) {
	for ; c != nil; c = c.parent {
		c.SearchCandidates.Add(n)
	}
}

// AddSearchExamined records n entries scored by the exact verify stage.
func (c *Counters) AddSearchExamined(n int64) {
	for ; c != nil; c = c.parent {
		c.SearchExamined.Add(n)
	}
}

// AddCheckpointSave records one grid-cache snapshot persisted.
func (c *Counters) AddCheckpointSave() {
	for ; c != nil; c = c.parent {
		c.CheckpointSaves.Add(1)
	}
}

// AddCheckpointRestore records one run resumed from a checkpoint.
func (c *Counters) AddCheckpointRestore() {
	for ; c != nil; c = c.parent {
		c.CheckpointRestores.Add(1)
	}
}

// ObserveGridEntries raises the peak grid-entry watermark to n if larger.
func (c *Counters) ObserveGridEntries(n int64) {
	for ; c != nil; c = c.parent {
		for {
			cur := c.PeakGridEntries.Load()
			if n <= cur || c.PeakGridEntries.CompareAndSwap(cur, n) {
				break
			}
		}
	}
}

// RecomputationFactor is Cells / (m*n): 1.0 means no recomputation (full
// matrix), Hirschberg is ~2, FastLSA is bounded by (k/(k-1))^2 (Theorem 2).
func (c *Counters) RecomputationFactor(m, n int) float64 {
	if c == nil || m == 0 || n == 0 {
		return 0
	}
	return float64(c.Cells.Load()) / (float64(m) * float64(n))
}

// Snapshot is a plain-value copy of the counters. The JSON tags make it
// directly servable (the alignment section of the server's /v1/stats reply).
type Snapshot struct {
	Cells              int64 `json:"cells"`
	TracebackSteps     int64 `json:"traceback_steps"`
	BaseCases          int64 `json:"base_cases"`
	GeneralCases       int64 `json:"general_cases"`
	FillTiles          int64 `json:"fill_tiles"`
	PeakGridEntries    int64 `json:"peak_grid_entries"`
	Phase1Tiles        int64 `json:"phase1_tiles"`
	Phase2Tiles        int64 `json:"phase2_tiles"`
	Phase3Tiles        int64 `json:"phase3_tiles"`
	MeshShrinks        int64 `json:"mesh_shrinks"`
	PlannedFillTiles   int64 `json:"planned_fill_tiles"`
	ExecutedFillTiles  int64 `json:"executed_fill_tiles"`
	SearchScanned      int64 `json:"search_scanned"`
	SearchCandidates   int64 `json:"search_candidates"`
	SearchExamined     int64 `json:"search_examined"`
	CheckpointSaves    int64 `json:"checkpoint_saves"`
	CheckpointRestores int64 `json:"checkpoint_restores"`
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Cells:              c.Cells.Load(),
		TracebackSteps:     c.TracebackSteps.Load(),
		BaseCases:          c.BaseCases.Load(),
		GeneralCases:       c.GeneralCases.Load(),
		FillTiles:          c.FillTiles.Load(),
		PeakGridEntries:    c.PeakGridEntries.Load(),
		Phase1Tiles:        c.Phase1Tiles.Load(),
		Phase2Tiles:        c.Phase2Tiles.Load(),
		Phase3Tiles:        c.Phase3Tiles.Load(),
		MeshShrinks:        c.MeshShrinks.Load(),
		PlannedFillTiles:   c.PlannedFillTiles.Load(),
		ExecutedFillTiles:  c.ExecutedFillTiles.Load(),
		SearchScanned:      c.SearchScanned.Load(),
		SearchCandidates:   c.SearchCandidates.Load(),
		SearchExamined:     c.SearchExamined.Load(),
		CheckpointSaves:    c.CheckpointSaves.Load(),
		CheckpointRestores: c.CheckpointRestores.Load(),
	}
}

// String implements fmt.Stringer.
func (s Snapshot) String() string {
	return fmt.Sprintf("cells=%d trace=%d base=%d general=%d tiles=%d(p1=%d p2=%d p3=%d planned=%d ran=%d) peakGrid=%d shrinks=%d search=%d/%d/%d",
		s.Cells, s.TracebackSteps, s.BaseCases, s.GeneralCases,
		s.FillTiles, s.Phase1Tiles, s.Phase2Tiles, s.Phase3Tiles,
		s.PlannedFillTiles, s.ExecutedFillTiles, s.PeakGridEntries,
		s.MeshShrinks,
		s.SearchScanned, s.SearchCandidates, s.SearchExamined)
}
