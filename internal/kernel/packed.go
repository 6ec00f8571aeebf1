package kernel

// The packed sweep: affine Forward rows advanced sixteen at a time in byte
// lanes, after the difference recurrence of Suzuki and Kasahara (BMC
// Bioinformatics 19(Suppl 1):45, 2018). With Q = −(open+ext) and qo = −open
// it carries the shifted differences
//
//	u′ = H(i,j)−H(i−1,j)+Q    v′ = H(i,j)−H(i,j−1)+Q
//	x′ = E(i+1,j)−H(i,j)+Q    y′ = F(i,j+1)−H(i,j)+Q
//
// which stay in [0, Smax+2Q] and [0, qo] on real DP boundaries, so one
// uint64 holds eight of them. A strip is sixteen rows, two words; lane k
// runs row k of the strip and trails lane k−1 by one column, so each step
// advances one anti-diagonal cell per lane:
//
//	A = x′+v′ (lane above)   B = y′+u′ (same lane, column before)
//	z′ = max(s+2Q, A, B)     u′ = z′−v′   v′ = z′−u′
//	x′ = max(A+qo−z′, 0)     y′ = max(B+qo−z′, 0)
//
// Every lane value stays below 128 while no live lane's A+qo or B+qo sets
// bit 7, which the sentinel checks; the strip's words then compute exactly
// what affineRow would. docs/ALGORITHMS.md §1 "Packed sweep" has the ranges,
// the fallback conditions and the crossover.

import (
	"encoding/binary"
	"sync"

	"fastlsa/internal/stats"
)

// packedMinWidth is the narrowest block, in columns, the packed sweep takes:
// below it the strip ramps and the score profiles cost more than the lanes
// save (the crossover measured in BENCH_SWEEP.json).
var packedMinWidth = 160

const (
	stripRows = 16 // rows per strip: two words of eight byte lanes
	// padCols zero bytes flank each profile and carry row, so ramp chunks
	// read columns −14..n+22 without a test.
	padCols = 24
)

// packedScratch pools the scratch of packed sweeps (*packedBuf).
var packedScratch sync.Pool

// packedBuf is a packed sweep's scratch: the carry row and score profiles,
// and one strip's score words, one [16]uint64 per eight steps.
type packedBuf struct {
	bytes []byte
	words [][16]uint64
}

// lanesBelow returns the byte masks of strip lanes 0..l−1, 0 ≤ l ≤ 16, as
// the strip's two words.
func lanesBelow(l int) [2]uint64 {
	return [2]uint64{1<<(8*min(l, 8)) - 1, 1<<(8*max(l-8, 0)) - 1}
}

// forwardPacked runs rows 1..R of an affine Forward as packed strips, R the
// largest multiple of 16 below len(a), when the block and the scores allow.
// rowH and rowE hold the top boundary on entry; on success outCol holds
// rows 1..R, and rowH/rowE hold row R rebuilt for affineRow: H(R,·) and
// E(R+1,·)−ext, from which affineRow's E step yields E(R+1,·) exactly. It
// returns R, or 0 with rowH/rowE untouched when the scalar rows must run
// from the top: block narrower than the crossover, scores or penalties too
// wide for seven bits, an edge difference out of range, or a tripped
// sentinel.
func (k *Kernel) forwardPacked(a, b []byte, left Edge, rowH, rowE []int64, outCol Edge, poll *stats.Poll) (int, error) {
	n, rows := len(b), (len(a)-1)/stripRows*stripRows
	open, ext := k.Mod.Open, k.Mod.Ext
	if n < packedMinWidth || rows == 0 || open > 0 || ext > 0 {
		return 0, nil
	}
	q, qo := -(open + ext), -open
	if 2*q+max(int64(k.M.Max()), 0) > 127 {
		return 0, nil
	}
	for i := 1; i <= rows; i++ {
		du := left.H[i] - left.H[i-1] + q
		if du < 0 || du > 127 || left.G[i]-left.H[i] > 0 {
			return 0, nil
		}
	}

	// Scratch: the carry row of (v′, x′) pairs, column j at bytes 2(j+padCols−1)
	// and the next, then one score profile per distinct residue of a[:rows],
	// column j at byte j+padCols−1.
	width := n + 2*padCols
	var slot [256]int // 1 + the profile index of a residue, 0 when unseen
	var residues [256]byte
	nres := 0
	for _, c := range a[:rows] {
		if slot[c] == 0 {
			residues[nres] = c
			nres++
			slot[c] = nres
		}
	}
	pb, _ := packedScratch.Get().(*packedBuf)
	if pb == nil {
		pb = new(packedBuf)
	}
	defer packedScratch.Put(pb)
	size, chunks := (2+nres)*width, (n+stripRows+6)/8
	if cap(pb.bytes) < size {
		pb.bytes = make([]byte, size)
	}
	if cap(pb.words) < chunks {
		pb.words = make([][16]uint64, chunks)
	}
	buf, words := pb.bytes[:size], pb.words[:chunks]
	clear(buf)
	carry, prof := buf[:2*width], buf[2*width:]
	for j := 1; j <= n; j++ {
		dv := rowH[j] - rowH[j-1] + q
		dx := max(rowE[j]-rowH[j]+qo, 0)
		if dv < 0 || dv > 127 || dx > qo {
			return 0, nil
		}
		carry[2*(j+padCols-1)], carry[2*(j+padCols-1)+1] = byte(dv), byte(dx)
	}
	for p, c := range residues[:nres] {
		srow, dst := k.M.Row(c), prof[p*width+padCols:(p+1)*width-padCols]
		for j, bc := range b {
			dst[j] = byte(max(int64(srow[bc])+2*q, 0))
		}
	}

	qs := uint64(qo) * 0x0101010101010101
	hn := rowH[n]
	for i0 := 0; i0 < rows; i0 += stripRows {
		if err := poll.Tick(stripRows * n); err != nil {
			return 0, err
		}
		// Lane k reads column j = t−k+1 of its profile at step t from
		// byte off[k]+t.
		var off [stripRows]int
		var lu, ly [stripRows]byte
		for l := range off {
			i := i0 + l + 1
			off[l] = (slot[a[i-1]]-1)*width + padCols - l
			lu[l] = byte(left.H[i] - left.H[i-1] + q)
			ly[l] = byte(max(left.G[i]-left.H[i]+qo, 0))
		}
		for l := range off {
			gatherLane(words, l, prof[off[l]:])
		}
		var cu, cvn, cy [stripRows]byte // lane k's u′, v′ and incoming y′ at column n
		sent := runStrip(words, carry, n, qs, &lu, &ly, &cu, &cvn, &cy)
		if sent&lanesHi != 0 {
			return 0, nil
		}
		for l := 0; l < stripRows; l++ {
			hn += int64(cu[l]) - q
			i := i0 + l + 1
			if outCol.H != nil {
				outCol.H[i] = hn
			}
			if outCol.G != nil {
				outCol.G[i] = hn + int64(cy[l]) - int64(cvn[l])
			}
		}
	}

	h := left.H[rows]
	rowH[0] = h
	for j := 1; j <= n; j++ {
		h += int64(carry[2*(j+padCols-1)]) - q
		rowH[j] = h
		rowE[j] = h + int64(carry[2*(j+padCols-1)+1]) - q - ext
	}
	return rows, nil
}

// gatherLane loads lane l's score bytes for a strip: from src, the lane's
// profile row at its first step, eight steps per word of words. Kept out
// of line: inlined into forwardPacked, its loop state spills.
//
//go:noinline
func gatherLane(words [][16]uint64, l int, src []byte) {
	l &= stripRows - 1
	c := 0
	for ; c+4 <= len(words); c += 4 {
		// Four words per bounds check.
		w, b := (*[4][16]uint64)(words[c:]), (*[32]byte)(src[8*c:])
		w[0][l] = binary.LittleEndian.Uint64(b[0:])
		w[1][l] = binary.LittleEndian.Uint64(b[8:])
		w[2][l] = binary.LittleEndian.Uint64(b[16:])
		w[3][l] = binary.LittleEndian.Uint64(b[24:])
	}
	for ; c < len(words); c++ {
		words[c][l] = binary.LittleEndian.Uint64(src[8*c:])
	}
}

// runStrip advances one strip through all n+15 of its steps, eight at a
// time: words holds its score words as gatherLane left them (transposed
// here), carry the (v′, x′) pairs it reads from the row above and leaves
// for the row below. lu, ly, cu, cvn and cy are as for rampStep. It
// returns the sentinel's OR over live lanes.
func runStrip(words [][16]uint64, carry []byte, n int, q uint64, lu, ly, cu, cvn, cy *[stripRows]byte) uint64 {
	var st [2]laneWord
	var sent uint64
	for c := range words {
		t := 8 * c
		sc := &words[c]
		transpose8((*[8]uint64)(sc[:8]))
		transpose8((*[8]uint64)(sc[8:]))
		if t >= stripRows && t+8 <= n-1 {
			// Steady state: all sixteen lanes live, none at column n.
			sent |= packedSteps(&st, sc, (*[46]byte)(carry[2*(t+padCols-15):]), q)
			continue
		}
		for s := 0; s < 8 && t+s < n+stripRows-1; s++ {
			sent |= rampStep(&st, t+s, n, sc[s], sc[8+s], q, lu, ly, carry, cu, cvn, cy)
		}
	}
	return sent
}

// rampStep advances the strip st one step t outside its steady state, where
// lanes start (t < 16: lane t takes its left carries lu, ly) or finish
// (t ≥ n: lanes up to t−n are done); s0 and s1 are its score words. It
// records the lane reaching column n into cu, cvn, cy, writes lane 15's
// carries once it is live, and zeroes the carries finished lanes no longer
// pass on, so filler values never borrow into live lanes. The returned
// sentinel covers live lanes only.
func rampStep(st *[2]laneWord, t, n int, s0, s1, q uint64, lu, ly *[stripRows]byte,
	carry []byte, cu, cvn, cy *[stripRows]byte) uint64 {
	if t < stripRows {
		w, sh := &st[t/8], 8*(t%8)
		w.u = w.u&^(0xFF<<sh) | uint64(lu[t])<<sh
		w.y = w.y&^(0xFF<<sh) | uint64(ly[t])<<sh
	}
	end := t - n + 1 // the lane reaching column n at this step
	if end >= 0 {
		cy[end] = byte(st[end/8].y >> (8 * (end % 8)))
	}
	x7, v7 := st[0].x>>56, st[0].v>>56
	sent0 := st[0].step(st[0].x<<8|uint64(carry[2*(t+padCols)+1]), st[0].v<<8|uint64(carry[2*(t+padCols)]), s0, q)
	sent1 := st[1].step(st[1].x<<8|x7, st[1].v<<8|v7, s1, q)
	started, finished := lanesBelow(min(t, stripRows-1)+1), lanesBelow(max(end, 0))
	sent := sent0&started[0]&^finished[0] | sent1&started[1]&^finished[1]
	if j := t - stripRows + 2; j >= 1 && j <= n {
		carry[2*(j+padCols-1)], carry[2*(j+padCols-1)+1] = byte(st[1].v>>56), byte(st[1].x>>56)
	}
	if end >= 0 {
		w, sh := &st[end/8], 8*(end%8)
		cu[end], cvn[end] = byte(w.u>>sh), byte(w.v>>sh)
		// Lane end is done with its own carries; lane end+1 still reads
		// its vertical ones at the next step.
		done, above := lanesBelow(end+1), lanesBelow(end)
		for i := range st {
			st[i].u &^= done[i]
			st[i].y &^= done[i]
			st[i].x &^= above[i]
			st[i].v &^= above[i]
		}
	}
	return sent
}
