package kernel

// Row functions: the per-row cell loops of every sweep and rectangle fill.
//
// Each is a small leaf taking lanes of exactly len(b) entries and returning
// the values it carries along the row (h, and f for affine models). Kept out
// of the callers — which hold validation, polling, cell counting and
// boundary handling — the loop state fits in registers. The one length check
// per row lets the compiler prove every per-cell index in bounds, so the
// loops compile without spills or bounds checks (the CI bounds-check gate
// holds this file to zero sites). The recurrences, tie-breaks and evaluation
// order are exactly those documented on Forward and FillRegion.
//
// Arguments shared by all of them: b holds the column residues of the row's
// cells, srow is the score row of its row residue, diag is the H value
// diagonally up-left of the first cell, and h (and f) the H (and F) value of
// the boundary cell before it.

// errLaneLength is the panic of a row function handed a lane whose length
// differs from the row's residue count: a caller bug, never an input error.
const errLaneLength = "kernel: row lane length differs from its residue count"

// linearRow computes one single-plane row. up holds the H values of the
// previous row above the row's cells and out receives the row's H values;
// out may alias up (the in-place sweep). It returns the last cell's H.
func linearRow(out, up []int64, b []byte, srow *[256]int16, diag, h, gap int64) int64 {
	if len(out) != len(b) || len(up) != len(b) {
		panic(errLaneLength)
	}
	for j, c := range b {
		u := up[j]
		best := diag + int64(srow[c])
		if v := u + gap; v > best {
			best = v
		}
		if v := h + gap; v > best {
			best = v
		}
		out[j] = best
		h = best
		diag = u
	}
	return h
}

// affineRow computes one three-plane row in place: rowH and rowE hold the
// previous row's H and E values on entry and this row's on return. It
// returns the last cell's H and F.
func affineRow(rowH, rowE []int64, b []byte, srow *[256]int16, diag, h, f, open, ext int64) (int64, int64) {
	if len(rowH) != len(b) || len(rowE) != len(b) {
		panic(errLaneLength)
	}
	oe := open + ext
	for j, c := range b {
		u := rowH[j]
		e := rowE[j] + ext
		if v := u + oe; v > e {
			e = v
		}
		f += ext
		if v := h + oe; v > f {
			f = v
		}
		h = diag + int64(srow[c])
		if e > h {
			h = e
		}
		if f > h {
			h = f
		}
		diag = u
		rowH[j] = h
		rowE[j] = e
	}
	return h, f
}

// affineRowStored computes one three-plane row of a stored plane set: upH
// and upE hold the row above, outH, outE and outF receive every plane of
// this row (the F plane is kept for the traceback).
func affineRowStored(outH, outE, outF, upH, upE []int64, b []byte, srow *[256]int16, diag, h, f, open, ext int64) {
	if len(outH) != len(b) || len(outE) != len(b) || len(outF) != len(b) ||
		len(upH) != len(b) || len(upE) != len(b) {
		panic(errLaneLength)
	}
	oe := open + ext
	for j, c := range b {
		u := upH[j]
		e := upE[j] + ext
		if v := u + oe; v > e {
			e = v
		}
		f += ext
		if v := h + oe; v > f {
			f = v
		}
		h = diag + int64(srow[c])
		if e > h {
			h = e
		}
		if f > h {
			h = f
		}
		diag = u
		outH[j] = h
		outE[j] = e
		outF[j] = f
	}
}
