// Package align defines the shared output representation of every alignment
// algorithm in this repository: DP paths through the logical dynamic
// programming matrix (DPM), gapped alignments built from them, CIGAR
// encoding, pretty-printing, and the validation/re-scoring oracles used by
// the test suite.
//
// Conventions (paper §2.1, Figure 1): the DPM has nodes (r,c) with
// 0 <= r <= m and 0 <= c <= n, sequence a (length m) indexed by rows and
// sequence b (length n) indexed by columns. A path step from (r-1,c-1) to
// (r,c) aligns a[r] with b[c]; from (r-1,c) to (r,c) aligns a[r] with a gap;
// from (r,c-1) to (r,c) aligns a gap with b[c].
package align

import (
	"fmt"
	"strings"
)

// Move is one traceback step direction through the DPM.
type Move uint8

const (
	// Diag aligns a residue of each sequence (match or mismatch).
	Diag Move = iota
	// Up consumes a residue of the row sequence a against a gap.
	Up
	// Left consumes a residue of the column sequence b against a gap.
	Left
)

// String implements fmt.Stringer.
func (m Move) String() string {
	switch m {
	case Diag:
		return "D"
	case Up:
		return "U"
	case Left:
		return "L"
	default:
		return fmt.Sprintf("Move(%d)", uint8(m))
	}
}

// Path is a monotone DPM path from node (0,0) to node (m,n), stored as the
// forward sequence of moves.
type Path struct {
	moves []Move
}

// NewPath wraps a forward move slice (no copy).
func NewPath(moves []Move) Path { return Path{moves: moves} }

// Moves exposes the forward move slice (callers must not mutate).
func (p Path) Moves() []Move { return p.moves }

// Len reports the number of moves (alignment columns).
func (p Path) Len() int { return len(p.moves) }

// Dims returns the DPM dimensions (m, n) implied by the path: m = #Diag+#Up,
// n = #Diag+#Left.
func (p Path) Dims() (m, n int) {
	for _, mv := range p.moves {
		switch mv {
		case Diag:
			m++
			n++
		case Up:
			m++
		case Left:
			n++
		}
	}
	return m, n
}

// Equal reports whether two paths are identical move-for-move.
func (p Path) Equal(q Path) bool {
	if len(p.moves) != len(q.moves) {
		return false
	}
	for i := range p.moves {
		if p.moves[i] != q.moves[i] {
			return false
		}
	}
	return true
}

// String renders the move string, e.g. "DDULD".
func (p Path) String() string {
	var b strings.Builder
	b.Grow(len(p.moves))
	for _, m := range p.moves {
		b.WriteString(m.String())
	}
	return b.String()
}

// Builder accumulates a path *backwards*, the way every traceback in this
// repository produces it: moves are pushed in trace order (from (m,n) toward
// (0,0)) and Path() reverses once. FastLSA's "prepend to flsaPath" maps to
// Push on this builder.
type Builder struct {
	rev []Move
}

// NewBuilder returns a builder with capacity for hint moves.
func NewBuilder(hint int) *Builder {
	if hint < 0 {
		hint = 0
	}
	return &Builder{rev: make([]Move, 0, hint)}
}

// Push records the move that *precedes* the current path head.
func (b *Builder) Push(m Move) { b.rev = append(b.rev, m) }

// Len reports the number of moves recorded so far.
func (b *Builder) Len() int { return len(b.rev) }

// Path reverses the accumulated moves into a forward Path. The builder may
// not be reused afterwards.
func (b *Builder) Path() Path {
	for i, j := 0, len(b.rev)-1; i < j; i, j = i+1, j-1 {
		b.rev[i], b.rev[j] = b.rev[j], b.rev[i]
	}
	return Path{moves: b.rev}
}

// Validate checks that the path is exactly a monotone (0,0)->(m,n) walk.
func (p Path) Validate(m, n int) error {
	pm, pn := p.Dims()
	if pm != m || pn != n {
		return fmt.Errorf("align: path covers (%d,%d), want (%d,%d)", pm, pn, m, n)
	}
	for i, mv := range p.moves {
		if mv > Left {
			return fmt.Errorf("align: invalid move %d at index %d", uint8(mv), i)
		}
	}
	return nil
}
