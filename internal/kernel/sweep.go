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
		if chk.s != nil && len(chk.s) != chk.want {
			return fmt.Errorf("kernel: Forward: %s has %d entries, want %d", chk.name, len(chk.s), chk.want)
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
