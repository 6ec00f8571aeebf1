package kernel

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/stats"
)

// checkEdge validates one boundary edge of an n+1-entry side.
func (k *Kernel) checkEdge(kind, side string, e Edge, n int) error {
	if len(e.H) != n+1 {
		return fmt.Errorf("kernel: %s: %s boundary H has %d entries, want %d", kind, side, len(e.H), n+1)
	}
	if k.Mod.IsAffine() && len(e.G) != n+1 {
		return fmt.Errorf("kernel: %s: %s boundary gap lane has %d entries, want %d", kind, side, len(e.G), n+1)
	}
	return nil
}

// checkOut validates one optional output lane.
func checkOut(kind, name string, s []int64, want int) error {
	if s != nil && len(s) != want {
		return fmt.Errorf("kernel: %s: %s has %d entries, want %d", kind, name, len(s), want)
	}
	return nil
}

// Forward propagates DP values from the top-left boundary to the bottom and
// right edges of the rectangle in O(n) space — the LastRow primitive of the
// paper's §2.2 and §5.1, for either gap model.
//
//   - a, b: row and column residues of the rectangle.
//   - top: node row 0 (H and, affine, E); left: node column 0 (H and,
//     affine, F); they must agree on the corner H value.
//   - outRow receives node row m, outCol node column n. Individual output
//     lanes may be nil when not needed; outRow lanes may alias top lanes, in
//     which case top is consumed as scratch.
//
// The kernel draws at most one scratch row per live plane from the pool and
// counts m*n cells on C. A sweep that takes the packed strips also holds a
// pooled packedBuf: (c+r)·(n+48) bytes of carry row and score profiles, c
// the carry bytes per column (1 linear: v′; 2 affine: v′ and x′) and r the
// distinct residues of its rows, and 128·⌈(n+15)/8⌉ bytes of score words.
func (k *Kernel) Forward(a, b []byte, top, left, outRow, outCol Edge) error {
	if err := k.checkEdge("Forward", "top", top, len(b)); err != nil {
		return err
	}
	if err := k.checkEdge("Forward", "left", left, len(a)); err != nil {
		return err
	}
	if top.H[0] != left.H[0] {
		return fmt.Errorf("kernel: Forward: corner mismatch: top H[0]=%d left H[0]=%d", top.H[0], left.H[0])
	}
	for _, chk := range []struct {
		name string
		s    []int64
		want int
	}{
		{"outRow H", outRow.H, len(b) + 1},
		{"outRow gap lane", outRow.G, len(b) + 1},
		{"outCol H", outCol.H, len(a) + 1},
		{"outCol gap lane", outCol.G, len(a) + 1},
	} {
		if err := checkOut("Forward", chk.name, chk.s, chk.want); err != nil {
			return err
		}
	}
	if k.Mod.IsAffine() {
		return k.forwardAffine(a, b, top, left, outRow, outCol)
	}
	return k.forwardLinear(a, b, top, left, outRow, outCol)
}

func (k *Kernel) forwardLinear(a, b []byte, top, left, outRow, outCol Edge) error {
	n := len(b)
	rows := len(a)
	gap := k.Mod.Ext

	// Choose the working row: reuse outRow when provided, otherwise scratch.
	row := outRow.H
	if row == nil {
		row = k.Pool.GetFull(n + 1)
		defer k.Pool.Put(row)
	}
	if &row[0] != &top.H[0] {
		copy(row, top.H)
	}
	if outCol.H != nil {
		outCol.H[0] = top.H[n]
	}
	if rows == 0 {
		// Degenerate rectangle: row 0 is also row m.
		return nil
	}

	poll := k.C.StartPoll()
	// The packed strips take every full strip when they can; the scalar
	// rows finish the rest.
	packed, err := k.forwardPacked(a, b, left, row, nil, outCol, &poll)
	if err != nil {
		return err
	}
	for r := packed; r < rows; r++ {
		if err := poll.Tick(n); err != nil {
			return err
		}
		diag := row[0]
		row[0] = left.H[r+1]
		h := linearRow(row[1:], row[1:], b, k.M.Row(a[r]), diag, row[0], gap)
		if outCol.H != nil {
			outCol.H[r+1] = h
		}
	}
	k.C.Add(stats.Cells, int64(rows)*int64(n))
	return nil
}

func (k *Kernel) forwardAffine(a, b []byte, top, left, outRow, outCol Edge) error {
	n := len(b)
	rows := len(a)
	open, ext := k.Mod.Open, k.Mod.Ext

	rowH, rowE := outRow.H, outRow.G
	if rowH == nil {
		rowH = k.Pool.GetFull(n + 1)
		defer k.Pool.Put(rowH)
	}
	if rowE == nil {
		rowE = k.Pool.GetFull(n + 1)
		defer k.Pool.Put(rowE)
	}
	if &rowH[0] != &top.H[0] {
		copy(rowH, top.H)
	}
	if &rowE[0] != &top.G[0] {
		copy(rowE, top.G)
	}
	if outCol.H != nil {
		outCol.H[0] = top.H[n]
	}
	if outCol.G != nil {
		// The top boundary does not carry F, so the top-right corner's F is
		// unknown here — and also never consumed: the kernel only reads
		// left.G[1..], and a column boundary's row-0 entry seeds nothing.
		outCol.G[0] = NegInf
	}
	if rows == 0 {
		return nil
	}

	poll := k.C.StartPoll()
	// The packed strips take the leading rows when they can; the scalar
	// rows finish from where they stop, at least the last row.
	packed, err := k.forwardPacked(a, b, left, rowH, rowE, outCol, &poll)
	if err != nil {
		return err
	}
	for r := packed; r < rows; r++ {
		if err := poll.Tick(n); err != nil {
			return err
		}
		diag := rowH[0]
		rowH[0] = left.H[r+1]
		rowE[0] = NegInf
		h, f := affineRow(rowH[1:], rowE[1:], b, k.M.Row(a[r]), diag, rowH[0], left.G[r+1], open, ext)
		if outCol.H != nil {
			outCol.H[r+1] = h
		}
		if outCol.G != nil {
			outCol.G[r+1] = f
		}
	}
	k.C.Add(stats.Cells, int64(rows)*int64(n))
	return nil
}

// Backward propagates suffix scores from the bottom-right boundary to the
// top and left edges: outputs are the best scores of aligning a[r..m)
// against b[c..n) given the values on row m (bottom) and column n (right).
//
//   - bottom: node row m (H and, affine, E); right: node column n (H and,
//     affine, F); they must agree on the corner H value.
//   - outRow receives node row 0, outCol node column 0; lanes may be nil;
//     outRow lanes may alias bottom lanes.
//
// Hirschberg's split step pairs Forward over the top half with Backward over
// the bottom half, with no reversed sequence copies for either gap model.
// Note the E lane of an affine outRow is NegInf at column n and the F lane
// of an affine outCol is NegInf at row m (those positions sit on the input
// boundary, which does not carry the lane); callers that need the
// column-n/row-m gap values (Myers-Miller's ss[N]) patch them from H.
func (k *Kernel) Backward(a, b []byte, bottom, right, outRow, outCol Edge) error {
	if err := k.checkEdge("Backward", "bottom", bottom, len(b)); err != nil {
		return err
	}
	if err := k.checkEdge("Backward", "right", right, len(a)); err != nil {
		return err
	}
	n := len(b)
	rows := len(a)
	if bottom.H[n] != right.H[rows] {
		return fmt.Errorf("kernel: Backward: corner mismatch: bottom H[%d]=%d right H[%d]=%d", n, bottom.H[n], rows, right.H[rows])
	}
	for _, chk := range []struct {
		name string
		s    []int64
		want int
	}{
		{"outRow H", outRow.H, n + 1},
		{"outRow gap lane", outRow.G, n + 1},
		{"outCol H", outCol.H, rows + 1},
		{"outCol gap lane", outCol.G, rows + 1},
	} {
		if err := checkOut("Backward", chk.name, chk.s, chk.want); err != nil {
			return err
		}
	}
	if k.Mod.IsAffine() {
		return k.backwardAffine(a, b, bottom, right, outRow, outCol)
	}
	return k.backwardLinear(a, b, bottom, right, outRow, outCol)
}

func (k *Kernel) backwardLinear(a, b []byte, bottom, right, outRow, outCol Edge) error {
	n := len(b)
	rows := len(a)
	gap := k.Mod.Ext

	row := outRow.H
	if row == nil {
		row = k.Pool.GetFull(n + 1)
		defer k.Pool.Put(row)
	}
	if &row[0] != &bottom.H[0] {
		copy(row, bottom.H)
	}
	if outCol.H != nil {
		outCol.H[rows] = bottom.H[0]
	}
	if rows == 0 {
		return nil
	}

	poll := k.C.StartPoll()
	for r := rows - 1; r >= 0; r-- {
		if err := poll.Tick(n); err != nil {
			return err
		}
		diag := row[n]
		row[n] = right.H[r]
		h := linearRowRev(row[:n], b, k.M.Row(a[r]), diag, row[n], gap)
		if outCol.H != nil {
			outCol.H[r] = h
		}
	}
	k.C.Add(stats.Cells, int64(rows)*int64(n))
	return nil
}

// backwardAffine runs the suffix form of the Gotoh recurrence:
//
//	E(r,j) = ext + max(E(r+1,j), open + H(r+1,j))   (gap entered downward)
//	F(r,j) = ext + max(F(r,j+1), open + H(r,j+1))   (gap entered rightward)
//	H(r,j) = max(s(a[r],b[j]) + H(r+1,j+1), E(r,j), F(r,j))
//
// the exact mirror of forwardAffine, so a vertical gap crossing row 0
// surfaces on the outRow E lane just as it does on a forward outRow.
func (k *Kernel) backwardAffine(a, b []byte, bottom, right, outRow, outCol Edge) error {
	n := len(b)
	rows := len(a)
	open, ext := k.Mod.Open, k.Mod.Ext

	rowH, rowE := outRow.H, outRow.G
	if rowH == nil {
		rowH = k.Pool.GetFull(n + 1)
		defer k.Pool.Put(rowH)
	}
	if rowE == nil {
		rowE = k.Pool.GetFull(n + 1)
		defer k.Pool.Put(rowE)
	}
	if &rowH[0] != &bottom.H[0] {
		copy(rowH, bottom.H)
	}
	if &rowE[0] != &bottom.G[0] {
		copy(rowE, bottom.G)
	}
	if outCol.H != nil {
		outCol.H[rows] = bottom.H[0]
	}
	if outCol.G != nil {
		outCol.G[rows] = NegInf
	}
	if rows == 0 {
		return nil
	}

	poll := k.C.StartPoll()
	for r := rows - 1; r >= 0; r-- {
		if err := poll.Tick(n); err != nil {
			return err
		}
		diag := rowH[n]
		rowH[n] = right.H[r]
		rowE[n] = NegInf
		h, f := affineRowRev(rowH[:n], rowE[:n], b, k.M.Row(a[r]), diag, rowH[n], right.G[r], open, ext)
		if outCol.H != nil {
			outCol.H[r] = h
		}
		if outCol.G != nil {
			outCol.G[r] = f
		}
	}
	k.C.Add(stats.Cells, int64(rows)*int64(n))
	return nil
}

// Score computes just the alignment score of a vs b in mode md, in O(n)
// space, for either gap model: one Forward sweep from the mode's leading
// boundaries, then the mode's best end node off the last row and column
// (ModeEnd).
func (k *Kernel) Score(a, b []byte, md align.Mode) (int64, error) {
	top := k.ModeEdge(len(b), md.FreeStartB)
	left := k.ModeEdge(len(a), md.FreeStartA)
	outRow := k.NewEdge(len(b))
	outCol := k.NewEdge(len(a))
	defer k.PutEdge(top)
	defer k.PutEdge(left)
	defer k.PutEdge(outRow)
	defer k.PutEdge(outCol)
	if err := k.Forward(a, b, top, left, outRow, outCol); err != nil {
		return 0, err
	}
	_, _, score := ModeEnd(outRow.H, outCol.H, md)
	return score, nil
}

// ModeEnd locates the end node of mode md from the last row and last column
// of the DPM: the best entry among (m, n), the last column if FreeEndA, and
// the last row if FreeEndB. Ties resolve to (m, n) first, then to larger
// indices (longer aligned cores).
func ModeEnd(lastRow, lastCol []int64, md align.Mode) (endR, endC int, score int64) {
	m, n := len(lastCol)-1, len(lastRow)-1
	endR, endC = m, n
	score = lastRow[n]
	if md.FreeEndA {
		for r := m - 1; r >= 0; r-- {
			if lastCol[r] > score {
				score, endR, endC = lastCol[r], r, n
			}
		}
	}
	if md.FreeEndB {
		for j := n - 1; j >= 0; j-- {
			if lastRow[j] > score {
				score, endR, endC = lastRow[j], m, j
			}
		}
	}
	return endR, endC, score
}
