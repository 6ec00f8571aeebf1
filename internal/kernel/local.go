package kernel

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/stats"
)

// FillLocal fills rt with the Smith-Waterman local DP: row 0 and column 0
// are zero, H is clamped at zero, and (for affine models) E and F run the
// standard Gotoh gap recurrence over the clamped H. It returns the maximum
// cell and its node; ties resolve to the smallest (row, column) in row-major
// order. A zero best means the empty alignment is optimal.
//
// The Open == 0 degeneration holds here exactly as in the global fill:
// with no open charge E collapses to H(up)+Ext and F to H(left)+Ext, so the
// three-plane clamped fill computes the single-plane clamped values.
func (k *Kernel) FillLocal(a, b []byte, rt Rect) (best int64, bestR, bestC int, err error) {
	cols := len(b) + 1
	for j := 0; j < cols; j++ {
		rt.H[j] = 0
	}
	for r := 1; r <= len(a); r++ {
		rt.H[r*cols] = 0
	}
	if k.Mod.IsAffine() {
		negInfFill(rt.E[:cols])
		negInfFill(rt.F[:cols])
		for r := 1; r <= len(a); r++ {
			rt.E[r*cols] = NegInf
			rt.F[r*cols] = NegInf
		}
	}
	if k.Mod.IsAffine() {
		return k.fillLocalAffine(a, b, rt)
	}
	gap := k.Mod.Ext
	buf := rt.H
	poll := k.C.StartPoll()
	for r := 1; r <= len(a); r++ {
		if err := poll.Tick(len(b)); err != nil {
			return 0, 0, 0, err
		}
		base := r * cols
		prev := base - cols
		srow := k.M.Row(a[r-1])
		rv := int64(0)
		for j := 1; j < cols; j++ {
			v := buf[prev+j-1] + int64(srow[b[j-1]])
			if x := buf[prev+j] + gap; x > v {
				v = x
			}
			if x := rv + gap; x > v {
				v = x
			}
			if v < 0 {
				v = 0
			}
			buf[base+j] = v
			rv = v
			if v > best {
				best = v
				bestR, bestC = r, j
			}
		}
	}
	k.C.Add(stats.Cells, int64(len(a))*int64(len(b)))
	return best, bestR, bestC, nil
}

func (k *Kernel) fillLocalAffine(a, b []byte, rt Rect) (best int64, bestR, bestC int, err error) {
	cols := len(b) + 1
	open, ext := k.Mod.Open, k.Mod.Ext
	H, E, F := rt.H, rt.E, rt.F
	poll := k.C.StartPoll()
	for r := 1; r <= len(a); r++ {
		if err := poll.Tick(len(b)); err != nil {
			return 0, 0, 0, err
		}
		base := r * cols
		prev := base - cols
		srow := k.M.Row(a[r-1])
		for j := 1; j < cols; j++ {
			e := E[prev+j] + ext
			if v := H[prev+j] + open + ext; v > e {
				e = v
			}
			E[base+j] = e
			f := F[base+j-1] + ext
			if v := H[base+j-1] + open + ext; v > f {
				f = v
			}
			F[base+j] = f
			h := H[prev+j-1] + int64(srow[b[j-1]])
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			H[base+j] = h
			if h > best {
				best = h
				bestR, bestC = r, j
			}
		}
	}
	k.C.Add(stats.Cells, int64(len(a))*int64(len(b)))
	return best, bestR, bestC, nil
}

// TracebackLocal traces the local path backwards from node (fromR, fromC)
// until the closed state reaches a zero cell (or the boundary), pushing
// moves on bld in trace order and returning the start node. The gap states
// never terminate the trace: a zero inside H is a stop only when the path is
// in the closed state there.
func (k *Kernel) TracebackLocal(a, b []byte, rt Rect, bld *align.Builder, fromR, fromC int) (startR, startC int) {
	cols := len(b) + 1
	if !k.Mod.IsAffine() {
		gap := k.Mod.Ext
		buf := rt.H
		r, cc := fromR, fromC
		steps := int64(0)
		for r > 0 && cc > 0 && buf[r*cols+cc] != 0 {
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
				panic(fmt.Sprintf("kernel: local traceback stuck at (%d,%d)", r, cc))
			}
			steps++
		}
		k.C.Add(stats.TracebackSteps, steps)
		return r, cc
	}

	open, ext := k.Mod.Open, k.Mod.Ext
	H, E, F := rt.H, rt.E, rt.F
	closeFirst := open == 0
	r, cc := fromR, fromC
	state := StateH
	steps := int64(0)
	for r > 0 && cc > 0 {
		idx := r*cols + cc
		switch state {
		case StateH:
			cur := H[idx]
			if cur == 0 {
				k.C.Add(stats.TracebackSteps, steps)
				return r, cc
			}
			switch {
			case H[idx-cols-1]+int64(k.M.Score(a[r-1], b[cc-1])) == cur:
				bld.Push(align.Diag)
				r--
				cc--
			case E[idx] == cur:
				state = StateE
				continue
			case F[idx] == cur:
				state = StateF
				continue
			default:
				panic(fmt.Sprintf("kernel: local affine traceback stuck in H at (%d,%d)", r, cc))
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
				panic(fmt.Sprintf("kernel: local affine traceback stuck in E at (%d,%d)", r, cc))
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
				panic(fmt.Sprintf("kernel: local affine traceback stuck in F at (%d,%d)", r, cc))
			}
			cc--
		}
		steps++
	}
	k.C.Add(stats.TracebackSteps, steps)
	return r, cc
}

// LocalScore computes only the optimal local score and its end node in
// O(min over rows) space: one rolling H row (plus an E row for affine
// models) drawn from the pool. Ties for the maximum resolve to the smallest
// (row, column) in row-major order, matching FillLocal.
func (k *Kernel) LocalScore(a, b []byte) (score int64, endA, endB int, err error) {
	n := len(b)
	rowH := k.Pool.GetFull(n + 1)
	defer k.Pool.Put(rowH)
	for j := range rowH {
		rowH[j] = 0
	}
	if !k.Mod.IsAffine() {
		gap := k.Mod.Ext
		poll := k.C.StartPoll()
		for r := 1; r <= len(a); r++ {
			if err := poll.Tick(n); err != nil {
				return 0, 0, 0, err
			}
			srow := k.M.Row(a[r-1])
			diag := rowH[0]
			rv := int64(0)
			for j := 1; j <= n; j++ {
				up := rowH[j]
				v := diag + int64(srow[b[j-1]])
				if x := up + gap; x > v {
					v = x
				}
				if x := rv + gap; x > v {
					v = x
				}
				if v < 0 {
					v = 0
				}
				rowH[j] = v
				rv = v
				diag = up
				if v > score {
					score = v
					endA, endB = r, j
				}
			}
		}
		k.C.Add(stats.Cells, int64(len(a))*int64(n))
		return score, endA, endB, nil
	}

	open, ext := k.Mod.Open, k.Mod.Ext
	rowE := k.Pool.GetFull(n + 1)
	defer k.Pool.Put(rowE)
	negInfFill(rowE)
	poll := k.C.StartPoll()
	for r := 1; r <= len(a); r++ {
		if err := poll.Tick(n); err != nil {
			return 0, 0, 0, err
		}
		srow := k.M.Row(a[r-1])
		diag := rowH[0]
		rv := int64(0)
		f := int64(NegInf)
		for j := 1; j <= n; j++ {
			up := rowH[j]
			e := rowE[j] + ext
			if v := up + open + ext; v > e {
				e = v
			}
			rowE[j] = e
			f += ext
			if v := rv + open + ext; v > f {
				f = v
			}
			h := diag + int64(srow[b[j-1]])
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			rowH[j] = h
			rv = h
			diag = up
			if h > score {
				score = h
				endA, endB = r, j
			}
		}
	}
	k.C.Add(stats.Cells, int64(len(a))*int64(n))
	return score, endA, endB, nil
}
