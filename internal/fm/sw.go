package fm

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// LocalResult is a Smith-Waterman local alignment: the best-scoring pair of
// subsequences a[StartA..EndA) and b[StartB..EndB) and the path between them.
type LocalResult struct {
	// Score is the optimal local alignment score (>= 0).
	Score int64
	// Path aligns a[StartA..EndA) against b[StartB..EndB).
	Path align.Path
	// StartA/EndA and StartB/EndB delimit the aligned subsequences
	// (0-based, half-open residue ranges).
	StartA, EndA int
	StartB, EndB int
}

// AlignLocal computes the optimal local alignment with the full-matrix
// Smith-Waterman algorithm (the paper's §2 mentions Smith-Waterman as the
// local counterpart of Needleman-Wunsch), under either gap model: linear
// gaps clamp the single plane at zero, affine gaps run the clamped Gotoh
// recurrence. The plane set is charged to budget. Ties for the maximum cell
// resolve to the smallest (row, column) in row-major order; traceback
// tie-break is diag > up > left.
func AlignLocal(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, budget *memory.Budget, c *stats.Counters) (LocalResult, error) {
	if err := gap.Validate(); err != nil {
		return LocalResult{}, err
	}
	mod := kernel.FromGap(gap)
	ra, rb := a.Residues, b.Residues
	rows, cols := len(ra)+1, len(rb)+1
	entries := int64(rows) * int64(cols)
	planes := int64(mod.Planes())
	if err := budget.ReserveRun(planes * entries); err != nil {
		return LocalResult{}, fmt.Errorf("fm: local DPM of %d x %d x %d entries: %w", planes, rows, cols, err)
	}
	defer budget.Release(planes * entries)

	k := kernel.New(m, mod, memory.Shared, c)
	rt := k.MakeRect(rows * cols)
	best, bestR, bestC, err := k.FillLocal(ra, rb, rt)
	if err != nil {
		return LocalResult{}, err
	}
	if best == 0 {
		// No positive-scoring pair exists; the empty alignment is optimal.
		return LocalResult{}, nil
	}

	bld := align.NewBuilder(bestR + bestC)
	r, cc := k.TracebackLocal(ra, rb, rt, bld, bestR, bestC)
	return LocalResult{
		Score:  best,
		Path:   bld.Path(),
		StartA: r, EndA: bestR,
		StartB: cc, EndB: bestC,
	}, nil
}
