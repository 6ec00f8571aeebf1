package kernel

// The word leaves of the packed sweep (packed.go): the per-lane saturating
// subtract, one step of a strip word, the steady eight-step loop and the
// 8×8 byte transpose. They hold every cell operation of a strip, and the
// compiler must prove each of their indexes in bounds, as in row.go.

const lanesHi = 0x8080808080808080 // bit 7 of every lane

// sat7 is max(a−b, 0) in each byte lane of two words of 7-bit lanes: the
// subtraction borrows into bit 7 of a lane exactly when a < b there, and
// the mask keeps only the lanes that did not.
func sat7(a, b uint64) uint64 {
	d := (a | lanesHi) - b
	m := d & lanesHi
	return d & (m - m>>7)
}

// laneWord is one word of a strip: eight lanes' horizontal carries u′, y′
// and the vertical outputs x′, v′ of their last step.
type laneWord struct{ u, y, x, v uint64 }

// step advances the word's lanes one step: xi, vi are the vertical
// carries into each lane (lane 0's from outside the word), s the score
// lanes s+2Q and q the splat qo. It returns the sentinel lanes A+qo | B+qo.
func (w *laneWord) step(xi, vi, s, q uint64) uint64 {
	a, b := xi+vi, w.y+w.u
	z := b + sat7(a, b)
	z += sat7(s, z)
	a, b = a+q, b+q
	w.u, w.v, w.x, w.y = z-vi, z-w.u, sat7(a, z), sat7(b, z)
	return a | b
}

// packedSteps advances a strip eight steps from step t in its steady
// state, every lane live: laneWord.step on both words, written out over
// locals (the call does not inline). sc holds the steps' score words (sc[s]
// lanes 0–7, sc[8+s] lanes 8–15); c holds the (v′, x′) carry pairs of
// columns t−14..t+8: lane 15 writes the first eight pairs, lane 0 reads the
// last eight. It returns the sentinel's OR.
func packedSteps(st *[2]laneWord, sc *[16]uint64, c *[46]byte, q uint64) uint64 {
	u0, y0, x0, v0 := st[0].u, st[0].y, st[0].x, st[0].v
	u1, y1, x1, v1 := st[1].u, st[1].y, st[1].x, st[1].v
	var sent uint64
	for s := 0; s < 8; s++ {
		xi1, vi1 := x1<<8|x0>>56, v1<<8|v0>>56
		xi0, vi0 := x0<<8|uint64(c[31+2*s]), v0<<8|uint64(c[30+2*s])
		a0, b0, a1, b1 := xi0+vi0, y0+u0, xi1+vi1, y1+u1
		z0, z1 := b0+sat7(a0, b0), b1+sat7(a1, b1)
		z0 += sat7(sc[s], z0)
		z1 += sat7(sc[8+s], z1)
		a0, b0, a1, b1 = a0+q, b0+q, a1+q, b1+q
		sent |= a0 | b0 | a1 | b1
		u0, v0, x0, y0 = z0-vi0, z0-u0, sat7(a0, z0), sat7(b0, z0)
		u1, v1, x1, y1 = z1-vi1, z1-u1, sat7(a1, z1), sat7(b1, z1)
		c[2*s], c[2*s+1] = byte(v1>>56), byte(x1>>56)
	}
	st[0], st[1] = laneWord{u0, y0, x0, v0}, laneWord{u1, y1, x1, v1}
	return sent
}

// transpose8 transposes the 8×8 byte matrix m (row r in m[r], column c in
// byte c) in registers: swap the off-diagonal 4×4 blocks, then 2×2, then
// single bytes.
func transpose8(m *[8]uint64) {
	r0, r1, r2, r3, r4, r5, r6, r7 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]
	r0, r4 = swapBlocks(r0, r4, 32, 0x00000000FFFFFFFF)
	r1, r5 = swapBlocks(r1, r5, 32, 0x00000000FFFFFFFF)
	r2, r6 = swapBlocks(r2, r6, 32, 0x00000000FFFFFFFF)
	r3, r7 = swapBlocks(r3, r7, 32, 0x00000000FFFFFFFF)
	r0, r2 = swapBlocks(r0, r2, 16, 0x0000FFFF0000FFFF)
	r1, r3 = swapBlocks(r1, r3, 16, 0x0000FFFF0000FFFF)
	r4, r6 = swapBlocks(r4, r6, 16, 0x0000FFFF0000FFFF)
	r5, r7 = swapBlocks(r5, r7, 16, 0x0000FFFF0000FFFF)
	r0, r1 = swapBlocks(r0, r1, 8, 0x00FF00FF00FF00FF)
	r2, r3 = swapBlocks(r2, r3, 8, 0x00FF00FF00FF00FF)
	r4, r5 = swapBlocks(r4, r5, 8, 0x00FF00FF00FF00FF)
	r6, r7 = swapBlocks(r6, r7, 8, 0x00FF00FF00FF00FF)
	m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7] = r0, r1, r2, r3, r4, r5, r6, r7
}

// swapBlocks exchanges the high sh-bit fields of a (under mask<<sh) with
// the low ones of b (under mask).
func swapBlocks(a, b uint64, sh uint, mask uint64) (uint64, uint64) {
	t := (a>>sh ^ b) & mask
	return a ^ t<<sh, b ^ t
}
