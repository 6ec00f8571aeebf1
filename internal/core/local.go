package core

import (
	"fmt"
	"slices"

	"fastlsa/internal/fm"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

// AlignLocal computes an optimal Smith-Waterman local alignment in
// FastLSA-bounded space (an extension exercising FastLSA as a subroutine,
// in the style of Huang's linear-space local alignment):
//
//  1. a score-only Smith-Waterman scan locates the optimal end cell,
//  2. a second score-only scan over the reversed prefixes locates the start,
//  3. FastLSA globally aligns the two delimited substrings (the optimal
//     local alignment is a global alignment of them).
//
// Only the O(min(m,n)) scan rows plus FastLSA's own footprint are live; the
// full Smith-Waterman matrix is never stored. Both gap models are supported
// (the scans and the global solve share the gap-generic kernel).
func AlignLocal(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, opt Options) (fm.LocalResult, error) {
	return AlignLocalFrom(a, b, m, gap, opt, -1, 0, 0)
}

// AlignLocalFrom is AlignLocal for a caller that has already run step 1:
// best, endR and endC are kernel.LocalScore's result for a against b under
// the same scoring (database search carries them over from its verify scan),
// so only the reverse scan and the FastLSA solve run. A negative best runs
// step 1 here.
func AlignLocalFrom(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, opt Options, best int64, endR, endC int) (fm.LocalResult, error) {
	if err := gap.Validate(); err != nil {
		return fm.LocalResult{}, err
	}
	r, err := opt.resolve()
	if err != nil {
		return fm.LocalResult{}, err
	}
	k := kernel.New(m, kernel.FromGap(gap), memory.Shared, r.c)
	if best < 0 {
		if best, endR, endC, err = k.LocalScore(a.Residues, b.Residues); err != nil {
			return fm.LocalResult{}, err
		}
	}
	if best == 0 {
		return fm.LocalResult{}, nil
	}

	// Reverse scan over the prefixes ending at the end cell. The best cell of
	// the reversed problem is the start of the local alignment; it must reach
	// the same score (gap costs are reversal-invariant under both models).
	ra, rb := slices.Clone(a.Residues[:endR]), slices.Clone(b.Residues[:endC])
	slices.Reverse(ra)
	slices.Reverse(rb)
	rbest, rR, rC, err := k.LocalScore(ra, rb)
	if err != nil {
		return fm.LocalResult{}, err
	}
	if rbest != best {
		return fm.LocalResult{}, fmt.Errorf("core: AlignLocal: reverse scan found %d, forward %d (internal invariant)", rbest, best)
	}
	startR, startC := endR-rR, endC-rC

	subA := a.Slice(startR, endR)
	subB := b.Slice(startC, endC)
	res, err := Align(subA, subB, m, gap, opt)
	if err != nil {
		return fm.LocalResult{}, err
	}
	if res.Score != best {
		return fm.LocalResult{}, fmt.Errorf("core: AlignLocal: global alignment of the delimited substrings scored %d, want %d", res.Score, best)
	}
	return fm.LocalResult{
		Score:  best,
		Path:   res.Path,
		StartA: startR, EndA: endR,
		StartB: startC, EndB: endC,
	}, nil
}
