package kernel

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/stats"
)

// Rect holds the stored DP planes of one rectangle, row-major with
// (len(a)+1) x (len(b)+1) entries per plane. Linear models use H only; E
// and F are nil. The memory belongs to the caller (budget accounting stays
// at the call sites, which know whether the planes are pre-reserved
// base-case buffers or fresh charges).
type Rect struct {
	H, E, F []int64
}

// MakeRect allocates the plane set for entries cells under the kernel's
// model (one plane linear, three affine).
func (k *Kernel) MakeRect(entries int) Rect {
	rt := Rect{H: make([]int64, entries)}
	if k.Mod.IsAffine() {
		rt.E = make([]int64, entries)
		rt.F = make([]int64, entries)
	}
	return rt
}

// SliceRect re-slices every live plane of rt to entries cells (for reusing a
// pre-reserved buffer across base cases).
func (rt Rect) SliceRect(entries int) Rect {
	out := Rect{H: rt.H[:entries]}
	if rt.E != nil {
		out.E = rt.E[:entries]
		out.F = rt.F[:entries]
	}
	return out
}

// SeedRect writes the top and left boundary edges into row 0 and column 0 of
// the rectangle's plane set, validating the edges. The dead boundary lanes of
// affine planes (F on row 0, E on column 0) are seeded NegInf; they are never
// read by the recurrence or by a traceback that terminates at the boundary.
// Wavefront-parallel fills seed once and then FillRegion per tile; FillRect
// bundles the two for the sequential whole-rectangle case.
func (k *Kernel) SeedRect(a, b []byte, top, left Edge, rt Rect) error {
	if err := k.checkEdge("SeedRect", "top", top, len(b)); err != nil {
		return err
	}
	if err := k.checkEdge("SeedRect", "left", left, len(a)); err != nil {
		return err
	}
	if top.H[0] != left.H[0] {
		return fmt.Errorf("kernel: SeedRect: corner mismatch: top H[0]=%d left H[0]=%d", top.H[0], left.H[0])
	}
	cols := len(b) + 1
	copy(rt.H[:cols], top.H)
	for r := 1; r <= len(a); r++ {
		rt.H[r*cols] = left.H[r]
	}
	if k.Mod.IsAffine() {
		copy(rt.E[:cols], top.G)
		negInfFill(rt.F[:cols])
		for r := 1; r <= len(a); r++ {
			base := r * cols
			rt.F[base] = left.G[r]
			rt.E[base] = NegInf
		}
	}
	return nil
}

// FillRect fills the rectangle's plane set from its top and left boundary
// edges. Each live plane of rt must hold (len(a)+1)*(len(b)+1) entries.
func (k *Kernel) FillRect(a, b []byte, top, left Edge, rt Rect) error {
	if err := k.SeedRect(a, b, top, left, rt); err != nil {
		return err
	}
	return k.FillRegion(a, b, rt, 0, len(a), 0, len(b))
}

// FillRegion computes cells (r0+1..r1) x (c0+1..c1) of the stored planes in
// place, reading the already-computed row above and column to the left. The
// planes span the full rectangle (stride len(b)+1); wavefront-parallel fills
// call this per tile, FillRect calls it once for the whole rectangle.
func (k *Kernel) FillRegion(a, b []byte, rt Rect, r0, r1, c0, c1 int) error {
	if k.Mod.IsAffine() {
		return k.fillRegionAffine(a, b, rt, r0, r1, c0, c1)
	}
	stride := len(b) + 1
	gap := k.Mod.Ext
	buf := rt.H
	poll := k.C.StartPoll()
	for r := r0 + 1; r <= r1; r++ {
		if err := poll.Tick(c1 - c0); err != nil {
			return err
		}
		lo, hi := r*stride+c0+1, r*stride+c1+1
		up, upHi := lo-stride, hi-stride
		linearRow(buf[lo:hi], buf[up:upHi], b[c0:c1], k.M.Row(a[r-1]), buf[up-1], buf[lo-1], gap)
	}
	k.C.Add(stats.Cells, int64(r1-r0)*int64(c1-c0))
	return nil
}

func (k *Kernel) fillRegionAffine(a, b []byte, rt Rect, r0, r1, c0, c1 int) error {
	stride := len(b) + 1
	open, ext := k.Mod.Open, k.Mod.Ext
	H, E, F := rt.H, rt.E, rt.F
	poll := k.C.StartPoll()
	for r := r0 + 1; r <= r1; r++ {
		if err := poll.Tick(c1 - c0); err != nil {
			return err
		}
		lo, hi := r*stride+c0+1, r*stride+c1+1
		up, upHi := lo-stride, hi-stride
		affineRowStored(H[lo:hi], E[lo:hi], F[lo:hi], H[up:upHi], E[up:upHi], b[c0:c1],
			k.M.Row(a[r-1]), H[up-1], H[lo-1], F[lo-1], open, ext)
	}
	k.C.Add(stats.Cells, int64(r1-r0)*int64(c1-c0))
	return nil
}

// Traceback traces the optimal path backwards from node (fromR, fromC) in
// the given state (StateH for linear models) through the stored planes until
// it reaches node row 0 or node column 0, pushing moves on bld in trace
// order. It returns the exit node and the state at the exit node, so a
// caller recursing across block boundaries (FastLSA) can resume mid-gap.
//
// Tie-breaks are shared by every algorithm in the repository: within the
// closed state, Diag > Up (E) > Left (F). Within an affine gap state,
// extend > close when Open < 0 — producing maximal-length gaps — but
// close > extend when Open == 0, which makes the degenerate affine model's
// paths byte-identical to the linear model's (with no open charge the close
// condition always holds, and re-entering the closed state reproduces the
// linear Diag > Up > Left decision at every node).
func (k *Kernel) Traceback(a, b []byte, rt Rect, bld *align.Builder, fromR, fromC, state int) (exitR, exitC, exitState int) {
	if k.Mod.IsAffine() {
		return k.tracebackAffine(a, b, rt, bld, fromR, fromC, state)
	}
	cols := len(b) + 1
	gap := k.Mod.Ext
	buf := rt.H
	r, cc := fromR, fromC
	steps := int64(0)
	for r > 0 && cc > 0 {
		cur := buf[r*cols+cc]
		switch {
		case buf[(r-1)*cols+cc-1]+int64(k.M.Score(a[r-1], b[cc-1])) == cur:
			bld.Push(align.Diag)
			r--
			cc--
		case buf[(r-1)*cols+cc]+gap == cur:
			bld.Push(align.Up)
			r--
		case buf[r*cols+cc-1]+gap == cur:
			bld.Push(align.Left)
			cc--
		default:
			// The planes were produced by FillRect, so one predecessor always
			// matches; reaching here means memory corruption or a caller bug.
			panic(fmt.Sprintf("kernel: traceback stuck at node (%d,%d): value %d has no consistent predecessor", r, cc, cur))
		}
		steps++
	}
	k.C.Add(stats.TracebackSteps, steps)
	return r, cc, StateH
}

func (k *Kernel) tracebackAffine(a, b []byte, rt Rect, bld *align.Builder, fromR, fromC, state int) (exitR, exitC, exitState int) {
	cols := len(b) + 1
	open, ext := k.Mod.Open, k.Mod.Ext
	H, E, F := rt.H, rt.E, rt.F
	closeFirst := open == 0
	r, cc := fromR, fromC
	steps := int64(0)
	for r > 0 && cc > 0 {
		idx := r*cols + cc
		switch state {
		case StateH:
			cur := H[idx]
			switch {
			case H[idx-cols-1]+int64(k.M.Score(a[r-1], b[cc-1])) == cur:
				bld.Push(align.Diag)
				r--
				cc--
			case E[idx] == cur:
				state = StateE
				continue // no move yet; E will emit
			case F[idx] == cur:
				state = StateF
				continue
			default:
				panic(fmt.Sprintf("kernel: affine traceback stuck in H at (%d,%d)", r, cc))
			}
		case StateE:
			cur := E[idx]
			bld.Push(align.Up)
			switch {
			case closeFirst && H[idx-cols]+open+ext == cur:
				state = StateH
			case E[idx-cols]+ext == cur:
				// stay in E
			case H[idx-cols]+open+ext == cur:
				state = StateH
			default:
				panic(fmt.Sprintf("kernel: affine traceback stuck in E at (%d,%d)", r, cc))
			}
			r--
		case StateF:
			cur := F[idx]
			bld.Push(align.Left)
			switch {
			case closeFirst && H[idx-1]+open+ext == cur:
				state = StateH
			case F[idx-1]+ext == cur:
				// stay in F
			case H[idx-1]+open+ext == cur:
				state = StateH
			default:
				panic(fmt.Sprintf("kernel: affine traceback stuck in F at (%d,%d)", r, cc))
			}
			cc--
		}
		steps++
	}
	k.C.Add(stats.TracebackSteps, steps)
	return r, cc, state
}
