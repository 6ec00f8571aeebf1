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
	"strconv"
	"strings"
	"sync/atomic"
)

// Counters accumulates the work performed by one alignment run. Each
// exported field is one counter, named by the ID of the same name; add to
// it with Add. Reading a field directly (Cells.Load()) is fine.
type Counters struct {
	Cells, TracebackSteps, BaseCases, GeneralCases, FillTiles, PeakGridEntries           atomic.Int64
	Phase1Tiles, Phase2Tiles, Phase3Tiles                                                atomic.Int64
	SearchScanned, SearchCandidates, SearchExamined, CheckpointSaves, CheckpointRestores atomic.Int64

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

// ID names one counter: a Counters field and its row of the counter table.
type ID uint8

// The counters, in table order (the order of a Snapshot, its JSON and its
// String).
const (
	Cells              ID = iota // DP matrix entries computed (the paper's unit of work)
	TracebackSteps               // traceback moves produced
	BaseCases                    // FastLSA base-case solves
	GeneralCases                 // FastLSA general-case splits
	FillTiles                    // tiles executed by parallel fills
	PeakGridEntries              // peak memory-budget entries of one FastLSA run
	Phase1Tiles                  // wavefront tiles in Figure 13's ramp-up (diagonals of < P tiles)
	Phase2Tiles                  // wavefront tiles in Figure 13's saturated middle
	Phase3Tiles                  // wavefront tiles in Figure 13's ramp-down
	SearchScanned                // database entries a corpus search considered
	SearchCandidates             // entries that survived the q-gram seed filter
	SearchExamined               // entries the exact kernel scored at the verify stage
	CheckpointSaves              // grid-cache snapshots persisted through a checkpoint sink
	CheckpointRestores           // runs that seeded their root grid cache from a checkpoint
	numIDs
)

// Desc is one row of the counter table: everything a Snapshot, its JSON,
// its String and the server's metric families need to know of a counter.
type Desc struct {
	// Key is the counter's JSON key and String label.
	Key string
	// Metric is the Prometheus family the server exports the counter as;
	// empty leaves it unexported.
	Metric string
	// Peak counters keep the largest value added (a gauge); the others sum
	// every Add (a counter).
	Peak  bool
	field func(*Counters) *atomic.Int64
	// Help is the family's help text.
	Help string
}

// Load reads d's counter from c (0 for a nil c).
func (d Desc) Load(c *Counters) int64 {
	if c == nil {
		return 0
	}
	return d.field(c).Load()
}

// table is the one list of counters: adding a counter takes a Counters
// field, an ID and a row here.
var table = [numIDs]Desc{
	Cells: {"cells", "fastlsa_align_cells_total", false, func(c *Counters) *atomic.Int64 { return &c.Cells },
		"DP matrix cells computed across all requests, WFA wavefront cells included."},
	TracebackSteps: {"traceback_steps", "fastlsa_align_traceback_steps_total", false, func(c *Counters) *atomic.Int64 { return &c.TracebackSteps },
		"Traceback steps walked across all requests."},
	BaseCases: {"base_cases", "fastlsa_align_base_cases_total", false, func(c *Counters) *atomic.Int64 { return &c.BaseCases },
		"FastLSA recursions solved directly in the base-case buffer."},
	GeneralCases: {"general_cases", "fastlsa_align_general_cases_total", false, func(c *Counters) *atomic.Int64 { return &c.GeneralCases },
		"FastLSA recursions that split into a grid of subproblems."},
	FillTiles: {"fill_tiles", "fastlsa_align_fill_tiles_total", false, func(c *Counters) *atomic.Int64 { return &c.FillTiles },
		"Wavefront tiles filled by the parallel grid fill."},
	PeakGridEntries: {"peak_grid_entries", "fastlsa_align_peak_grid_entries", true, func(c *Counters) *atomic.Int64 { return &c.PeakGridEntries },
		"Largest number of memory-budget entries (grid caches and base-case buffer included) held at once by a single FastLSA run; 0 for runs without a memory budget."},
	Phase1Tiles: {"phase1_tiles", "", false, func(c *Counters) *atomic.Int64 { return &c.Phase1Tiles }, ""},
	Phase2Tiles: {"phase2_tiles", "", false, func(c *Counters) *atomic.Int64 { return &c.Phase2Tiles }, ""},
	Phase3Tiles: {"phase3_tiles", "", false, func(c *Counters) *atomic.Int64 { return &c.Phase3Tiles }, ""},
	SearchScanned: {"search_scanned", "fastlsa_search_scanned_total", false, func(c *Counters) *atomic.Int64 { return &c.SearchScanned },
		"Database entries considered by corpus searches."},
	SearchCandidates: {"search_candidates", "fastlsa_search_candidates_total", false, func(c *Counters) *atomic.Int64 { return &c.SearchCandidates },
		"Entries that survived the q-gram seed filter."},
	SearchExamined: {"search_examined", "fastlsa_search_examined_total", false, func(c *Counters) *atomic.Int64 { return &c.SearchExamined },
		"Entries scored by the exact verify stage."},
	CheckpointSaves: {"checkpoint_saves", "fastlsa_align_checkpoint_saves_total", false, func(c *Counters) *atomic.Int64 { return &c.CheckpointSaves },
		"Grid-cache snapshots persisted through checkpoint sinks."},
	CheckpointRestores: {"checkpoint_restores", "fastlsa_align_checkpoint_restores_total", false, func(c *Counters) *atomic.Int64 { return &c.CheckpointRestores },
		"Runs that resumed their grid cache from a persisted checkpoint."},
}

// Table returns a copy of the counter table, in ID order.
func Table() []Desc {
	t := table
	return t[:]
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

// Add records n against counter id, on c and on every Derive parent: a Sum
// counter grows by n, a Peak counter rises to n if n is larger.
func (c *Counters) Add(id ID, n int64) {
	if c == nil {
		return
	}
	d := &table[id]
	for ; c != nil; c = c.parent {
		v := d.field(c)
		if !d.Peak {
			v.Add(n)
			continue
		}
		for cur := v.Load(); n > cur && !v.CompareAndSwap(cur, n); cur = v.Load() {
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

// Snapshot is a plain-value copy of the counters, indexed by ID. It encodes
// to JSON as one object keyed by each counter's Desc.Key, which makes it
// directly servable (the alignment section of the server's /v1/stats reply).
type Snapshot [numIDs]int64

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() (s Snapshot) {
	for id, d := range table {
		s[id] = d.Load(c)
	}
	return s
}

// MarshalJSON encodes s as an object of every counter, in table order.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for id, v := range s {
		if id > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, table[id].Key)
		b = append(b, ':')
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, '}'), nil
}

// String implements fmt.Stringer: key=value for every counter, in table
// order.
func (s Snapshot) String() string {
	var b strings.Builder
	for id, v := range s {
		if id > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", table[id].Key, v)
	}
	return b.String()
}
