package kernel

// SetPackedMinWidth sets the packed sweep's crossover width under both gap
// models for a test or benchmark and returns a func restoring them: 1<<30
// pins the scalar rows, 0 takes the packed strips wherever the scores
// allow.
func SetPackedMinWidth(w int) (restore func()) {
	old := packedMinWidth
	packedMinWidth.linear, packedMinWidth.affine = w, w
	return func() { packedMinWidth = old }
}

// PackedRows runs only the packed strips of a Forward over a copy of top
// and reports the rows they took: 0 when the sweep fell back to the scalar
// rows.
func (k *Kernel) PackedRows(a, b []byte, top, left Edge) (int, error) {
	rowH := append([]int64(nil), top.H...)
	rowE := append([]int64(nil), top.G...)
	poll := k.C.StartPoll()
	return k.forwardPacked(a, b, left, rowH, rowE, Edge{}, &poll)
}

// PackedMinWidth reports the packed sweep's crossover width under k's gap
// model.
func (k *Kernel) PackedMinWidth() int {
	if k.Mod.IsAffine() {
		return packedMinWidth.affine
	}
	return packedMinWidth.linear
}
