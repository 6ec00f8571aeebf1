// Package fm implements the full-matrix (FM) dynamic-programming alignment
// algorithms of the paper's §2.1: Needleman-Wunsch global alignment with the
// two phases FindScore (fill the complete DPM) and FindPath (trace the
// optimal path backwards through the stored matrix), plus the Smith-Waterman
// local variant. FM algorithms minimise operations (every cell exactly once)
// at the price of O(m*n) space; they are both the baseline FastLSA is
// compared against and the solver FastLSA uses for its base case. The
// parallel FM is therefore FastLSA's parallel Base Case over the whole
// matrix (internal/core, served by the fm backend).
//
// Both gap models run through the shared internal/kernel layer: linear gaps
// store one H plane, affine (Gotoh) gaps the three (H, E, F) planes.
package fm

import (
	"fastlsa/internal/align"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// Result is a scored global alignment path.
type Result struct {
	// Score is the optimal global alignment score (DPM bottom-right entry).
	Score int64
	// Path is the optimal path, with the deterministic tie-break
	// diagonal > up > left shared by every algorithm in this repository.
	Path align.Path
}

// Align computes the optimal global alignment of a and b with the full-matrix
// algorithm, selecting the plane count from the gap model (one linear plane,
// or the three Gotoh planes when gap.Open < 0). The plane set is charged
// against budget (nil budget = unlimited) before the first cell and released
// before returning; a plane set above the budget's total is refused with
// memory.ErrTooSmall.
func Align(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, budget *memory.Budget, c *stats.Counters) (Result, error) {
	return AlignMode(a, b, m, gap, align.Global, budget, c)
}
