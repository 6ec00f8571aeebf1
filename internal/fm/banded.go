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

// NegInf marks band cells outside the reachable region. Aliased from the
// kernel so the band code shares the one sentinel.
const NegInf = kernel.NegInf

// AlignBanded computes a banded global alignment: only DPM cells whose
// diagonal j-i lies within [min(0, n-m)-band, max(0, n-m)+band] are
// evaluated, using O((m+1) * width) memory and time where width ~ 2*band +
// |n-m| + 1. The classic k-band accelerator for pairs known to be similar:
// if the optimal unrestricted path stays inside the band (always true for
// band >= max(m, n)), the result is the global optimum; otherwise it is the
// best alignment confined to the band — a lower bound on the optimum.
// Linear gap models only.
func AlignBanded(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, band int, budget *memory.Budget, c *stats.Counters) (Result, error) {
	if err := gap.Validate(); err != nil {
		return Result{}, err
	}
	if !gap.IsLinear() {
		return Result{}, fmt.Errorf("fm: AlignBanded: affine gaps not supported")
	}
	if band < 0 {
		return Result{}, fmt.Errorf("fm: AlignBanded: negative band %d", band)
	}
	ra, rb := a.Residues, b.Residues
	mlen, nlen := len(ra), len(rb)

	// Diagonal range [lo, hi] guarantees (0,0) and (m,n) are inside.
	lo := -band
	if nlen-mlen < 0 {
		lo = nlen - mlen - band
	}
	hi := band
	if nlen-mlen > 0 {
		hi = nlen - mlen + band
	}
	width := hi - lo + 1

	entries := int64(mlen+1) * int64(width)
	if err := budget.ReserveRun(entries); err != nil {
		return Result{}, fmt.Errorf("fm: banded DPM of %d x %d entries: %w", mlen+1, width, err)
	}
	defer budget.Release(entries)

	g := int64(gap.Extend)
	buf := make([]int64, entries)
	for i := range buf {
		buf[i] = NegInf
	}
	// idx maps node (i, j) with lo <= j-i <= hi into the band buffer.
	idx := func(i, j int) int { return i*width + (j - i - lo) }
	at := func(i, j int) int64 {
		if j < 0 || j > nlen || j-i < lo || j-i > hi {
			return NegInf
		}
		return buf[idx(i, j)]
	}

	// Row 0 within the band.
	for j := 0; j <= nlen && j <= hi; j++ {
		buf[idx(0, j)] = int64(j) * g
	}
	cells := int64(0)
	poll := c.StartPoll()
	for i := 1; i <= mlen; i++ {
		if err := poll.Tick(width); err != nil {
			return Result{}, err
		}
		srow := m.Row(ra[i-1])
		jLo := i + lo
		if jLo < 0 {
			jLo = 0
		}
		jHi := i + hi
		if jHi > nlen {
			jHi = nlen
		}
		for j := jLo; j <= jHi; j++ {
			if j == 0 {
				buf[idx(i, 0)] = int64(i) * g
				continue
			}
			best := int64(NegInf)
			if d := at(i-1, j-1); d > NegInf {
				best = d + int64(srow[rb[j-1]])
			}
			if u := at(i-1, j); u > NegInf && u+g > best {
				best = u + g
			}
			if l := at(i, j-1); l > NegInf && l+g > best {
				best = l + g
			}
			buf[idx(i, j)] = best
			cells++
		}
	}
	c.Add(stats.Cells, cells)

	score := at(mlen, nlen)
	if score <= NegInf {
		return Result{}, fmt.Errorf("fm: band of %d disconnects (0,0) from (%d,%d)", band, mlen, nlen)
	}

	// Traceback within the band.
	bld := align.NewBuilder(mlen + nlen)
	i, j := mlen, nlen
	steps := int64(0)
	for i > 0 && j > 0 {
		cur := buf[idx(i, j)]
		switch {
		case at(i-1, j-1) > NegInf && at(i-1, j-1)+int64(m.Score(ra[i-1], rb[j-1])) == cur:
			bld.Push(align.Diag)
			i--
			j--
		case at(i-1, j) > NegInf && at(i-1, j)+g == cur:
			bld.Push(align.Up)
			i--
		case at(i, j-1) > NegInf && at(i, j-1)+g == cur:
			bld.Push(align.Left)
			j--
		default:
			panic(fmt.Sprintf("fm: banded traceback stuck at (%d,%d)", i, j))
		}
		steps++
	}
	for ; i > 0; i-- {
		bld.Push(align.Up)
	}
	for ; j > 0; j-- {
		bld.Push(align.Left)
	}
	c.Add(stats.TracebackSteps, steps)
	return Result{Score: score, Path: bld.Path()}, nil
}
