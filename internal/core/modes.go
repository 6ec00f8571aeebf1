package core

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

// AlignMode computes an optimal ends-free alignment (align.Mode) in
// FastLSA-bounded space, under either gap model. The end node cannot be read
// off a stored matrix, so the engine first runs one score-only kernel sweep
// to obtain the last row and column (O(m+n) space), picks the mode's best end
// node from them, and then lets the FastLSA recursion recover the path
// through the clipped rectangle — the same "locate, then solve the
// sub-rectangle with FastLSA" pattern as AlignLocal.
//
// Total work is ~(1 + recomputation factor) * m*n cells: one sweep plus the
// FastLSA solve.
func AlignMode(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, md align.Mode, opt Options) (Result, error) {
	if err := gap.Validate(); err != nil {
		return Result{}, err
	}
	if md.IsGlobal() {
		return Align(a, b, m, gap, opt)
	}
	r, err := opt.resolve()
	if err != nil {
		return Result{}, err
	}
	// The end node, and so the rectangle the recursion solves, is known only
	// after sweep 1: the feasibility check covers the Base Case planes here
	// and the recursion's grids once the rectangle is clipped.
	s, err := newSolver(a, b, m, gap, kernel.FromGap(gap), r, rect{})
	if err != nil {
		return Result{}, err
	}
	defer s.close()
	mlen, nlen := a.Len(), b.Len()

	top := s.k.ModeEdge(nlen, md.FreeStartB)
	left := s.k.ModeEdge(mlen, md.FreeStartA)
	defer s.k.PutEdge(top)
	defer s.k.PutEdge(left)

	// Sweep 1: last row and last column under the mode boundaries.
	lastRow := s.k.NewEdge(nlen)
	lastCol := s.k.NewEdge(mlen)
	defer s.k.PutEdge(lastRow)
	defer s.k.PutEdge(lastCol)
	if err := s.k.Forward(a.Residues, b.Residues, top, left, lastRow, lastCol); err != nil {
		return Result{}, err
	}
	endR, endC, score := kernel.ModeEnd(lastRow.H, lastCol.H, md)
	clip := rect{0, 0, endR, endC}
	if err := checkFeasible(s.opt, s.baseCharge, clip, s.k.Mod.Lanes()); err != nil {
		return Result{}, err
	}

	// Sweep 2: FastLSA over the clipped rectangle [0..endR] x [0..endC].
	// Free trailing moves lie after the path head; push them first.
	for i := mlen; i > endR; i-- {
		s.bld.Push(align.Up)
	}
	for j := nlen; j > endC; j-- {
		s.bld.Push(align.Left)
	}
	er, ec, _, err := s.solve(clip, sliceEdge(top, endC), sliceEdge(left, endR), kernel.StateH)
	if err != nil {
		return Result{}, err
	}
	for ; er > 0; er-- {
		s.bld.Push(align.Up)
	}
	for ; ec > 0; ec-- {
		s.bld.Push(align.Left)
	}
	path := s.bld.Path()
	if err := path.Validate(mlen, nlen); err != nil {
		return Result{}, fmt.Errorf("core: mode path is inconsistent: %w", err)
	}
	if got := align.ScorePathMode(a, b, path, m, gap, md); got != score {
		return Result{}, fmt.Errorf("core: mode path rescoring %d != DP score %d (internal invariant)", got, score)
	}
	return Result{Score: score, Path: path}, nil
}
