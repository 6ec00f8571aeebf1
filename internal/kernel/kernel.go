// Package kernel is the gap-model-generic DP fill layer shared by every
// alignment algorithm in this repository. One set of sweep and rectangle
// primitives covers both gap models of scoring.Gap:
//
//   - linear gaps (Open == 0) run as a single-plane DP over the H lane, the
//     exact Needleman-Wunsch recurrence of the paper;
//   - affine gaps (Open < 0) run the Gotoh three-plane recurrence over
//     (H, E, F), of which the linear model is the Open == 0 degeneration:
//     with no open charge, E collapses to H(up)+Extend and F to
//     H(left)+Extend, so the three-plane fill computes exactly the
//     single-plane values (the equivalence property pinned by
//     equivalence_test.go).
//
// Boundary values travel as Edges. A row edge carries the H lane and, for
// affine models, the E lane (a vertical gap can cross a row boundary); a
// column edge carries H and F (a horizontal gap can cross a column
// boundary). The dead lane of each edge is never read and is represented as
// NegInf where a slice must exist.
//
// All fill loops draw scratch rows from one memory.RowPool and poll
// cancellation through one stats.Poll (one check per ~8Ki cells), so
// allocation behaviour and cancellation latency are uniform across the
// full-matrix, LastRow, Hirschberg and FastLSA layers built on top.
package kernel

import (
	"math"

	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/stats"
)

// NegInf is the "minus infinity" sentinel for unreachable affine DP states.
// It is far below any reachable score yet safe to add gap penalties to
// without wrapping.
const NegInf = math.MinInt64 / 4

// Affine traceback states. FastLSA threads these across block boundaries:
// a gap can span several subproblems, and the traceback must resume inside
// it. Linear tracebacks are always in StateH.
const (
	// StateH is the closed state: the next decision considers all three
	// predecessors (this is also the "overall best" plane, since H holds
	// max(diag-closed, E, F)).
	StateH = iota
	// StateE is inside a vertical gap (a run of Up moves).
	StateE
	// StateF is inside a horizontal gap (a run of Left moves).
	StateF
)

// Model selects the gap model and its plane count: one H plane for linear
// gaps, three (H, E, F) planes for affine gaps. The zero Model is invalid;
// build one with Linear, Affine or FromGap.
type Model struct {
	// Open is the one-time gap-open penalty (0 for linear models).
	Open int64
	// Ext is the per-residue gap-extension penalty.
	Ext int64

	planes int
}

// Linear returns the single-plane model: each gapped position costs ext.
func Linear(ext int64) Model { return Model{Ext: ext, planes: 1} }

// Affine returns the three-plane Gotoh model: a gap of length L costs
// open + L*ext. open == 0 is accepted and runs the three-plane recurrence
// anyway, which must (and does) reproduce the linear model exactly — tests
// use this to pin the degeneration.
func Affine(open, ext int64) Model { return Model{Open: open, Ext: ext, planes: 3} }

// FromGap maps a scoring.Gap onto the cheapest model that realises it:
// single-plane for Gap.IsLinear, three-plane otherwise.
func FromGap(g scoring.Gap) Model {
	if g.IsLinear() {
		return Linear(int64(g.Extend))
	}
	return Affine(int64(g.Open), int64(g.Extend))
}

// Planes reports the number of DP planes (1 or 3).
func (m Model) Planes() int { return m.planes }

// Lanes reports the number of lanes an Edge of the model carries: H, plus
// the crossing gap lane under the affine model.
func (m Model) Lanes() int64 { return int64(m.planes+1) / 2 }

// IsAffine reports whether the three-plane recurrence runs. Note this is a
// property of the selected model, not of the penalties: Affine(0, ext) is
// affine here even though it scores identically to Linear(ext).
func (m Model) IsAffine() bool { return m.planes == 3 }

// GapCost returns the total penalty of a gap of length n (0 for n <= 0).
func (m Model) GapCost(n int) int64 {
	if n <= 0 {
		return 0
	}
	return m.Open + int64(n)*m.Ext
}

// Edge holds the boundary lanes of one rectangle edge. H is the overall-best
// lane. G is the gap lane that is live along the edge — E for a row edge
// (best ending in an Up move), F for a column edge (best ending in a Left
// move) — and is nil for single-plane models. On output edges, individual
// lanes may be nil when the caller does not need them.
type Edge struct {
	H []int64
	G []int64
}

// Kernel bundles the inputs every fill shares: the scoring matrix, the gap
// model, the row pool scratch and output vectors are drawn from, and the
// counters carrying instrumentation and the cancellation signal. Pool and C
// may be nil (no pooling, no instrumentation); Kernel values are cheap and
// may be copied.
type Kernel struct {
	M    *scoring.Matrix
	Mod  Model
	Pool *memory.RowPool
	C    *stats.Counters
}

// New returns a kernel over m with the given model. pool and c may be nil.
func New(m *scoring.Matrix, mod Model, pool *memory.RowPool, c *stats.Counters) *Kernel {
	return &Kernel{M: m, Mod: mod, Pool: pool, C: c}
}

// Boundary fills dst[0..n] with corner + i*step and returns it — the
// arithmetic progression underlying every leading-gap boundary. If dst is
// nil or too small a new slice is allocated.
func Boundary(dst []int64, n int, corner, step int64) []int64 {
	if cap(dst) < n+1 {
		dst = make([]int64, n+1)
	}
	dst = dst[:n+1]
	v := corner
	for i := 0; i <= n; i++ {
		dst[i] = v
		v += step
	}
	return dst
}

// negInfFill sets dst[0..n] to NegInf.
func negInfFill(dst []int64) []int64 {
	for i := range dst {
		dst[i] = NegInf
	}
	return dst
}

// NewEdge returns an uninitialised output edge of n+1 entries per live lane,
// drawn from the pool. Release it with PutEdge.
func (k *Kernel) NewEdge(n int) Edge {
	e := Edge{H: k.Pool.GetFull(n + 1)}
	if k.Mod.IsAffine() {
		e.G = k.Pool.GetFull(n + 1)
	}
	return e
}

// LeadEdge returns the standard leading-gap boundary edge of n+1 entries
// starting at corner: H[i] = corner + GapCost(i), with the gap lane dead
// (NegInf) for affine models. Release it with PutEdge.
func (k *Kernel) LeadEdge(n int, corner int64) Edge {
	e := k.NewEdge(n)
	if !k.Mod.IsAffine() {
		Boundary(e.H, n, corner, k.Mod.Ext)
		return e
	}
	e.H[0] = corner
	for i := 1; i <= n; i++ {
		e.H[i] = corner + k.Mod.GapCost(i)
	}
	negInfFill(e.G)
	return e
}

// FreeEdge returns a zero boundary edge (ends-free modes): H is all zero,
// the gap lane dead. Release it with PutEdge.
func (k *Kernel) FreeEdge(n int) Edge {
	e := k.NewEdge(n)
	for i := range e.H {
		e.H[i] = 0
	}
	if e.G != nil {
		negInfFill(e.G)
	}
	return e
}

// ModeEdge returns FreeEdge(n) when the corresponding sequence start is free
// to dangle, LeadEdge(n, 0) otherwise.
func (k *Kernel) ModeEdge(n int, freeStart bool) Edge {
	if freeStart {
		return k.FreeEdge(n)
	}
	return k.LeadEdge(n, 0)
}

// PutEdge returns an edge's lanes to the pool.
func (k *Kernel) PutEdge(e Edge) {
	k.Pool.Put(e.H)
	k.Pool.Put(e.G)
}
