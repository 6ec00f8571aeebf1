// Package wfa implements the wavefront alignment algorithm (WFA): exact
// global gap-affine alignment in O(ns) time and space, where s is the
// alignment cost in an equivalent unit-penalty model. On high-identity pairs
// s ≪ m, so WFA skips almost all of the mn cells any full DP must fill —
// the backend layer (internal/backend) routes low-divergence pairs here and
// everything else to FastLSA.
//
// WFA minimises edit penalties, while the rest of the repository maximises
// similarity scores. The two are equivalent exactly when the scoring matrix
// is uniform — every diagonal entry scores M, every off-diagonal entry
// scores X, with M > X (DNASimple and DNAStrict qualify; BLOSUM62 and
// DNAIUPAC do not). FromScoring performs the conversion:
//
//	mismatch x = 2(M − X), gap-open o = −2·Open, gap-extend e = M − 2·Extend
//
// and the similarity score is recovered from the optimal penalty E as
// S = (M·(m+n) − E)/2 (the parity always works out; see the derivation in
// docs/BACKENDS.md). Linear gap models are the o = 0 special case of the
// same recurrence.
//
// The kernel stores one wavefront per (penalty, component) as a packed
// []uint32 over a contiguous diagonal range: each cell carries the
// furthest-reaching offset plus a 3-bit backtrace op, so the traceback never
// recomputes a wave. Slices are pooled (sync.Pool), memory is charged
// against the caller's memory.Budget as wavefronts grow, and cancellation is
// polled through stats.Poll like every other kernel in the repository.
package wfa

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"fastlsa/internal/align"
	"fastlsa/internal/fm"
	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// MaxLen bounds each input sequence: offsets pack into 29 bits of a uint32
// cell (3 bits carry the backtrace op).
const MaxLen = 1<<29 - 2

// Penalties is the unit-penalty model a WFA run minimises, derived from a
// uniform similarity scoring system by FromScoring. All penalty fields are
// non-negative, with Mismatch and GapExtend strictly positive.
type Penalties struct {
	// Match and MismatchScore are the uniform similarity scores the
	// penalties were derived from (M and X above); Match recovers the
	// similarity score after the run.
	Match, MismatchScore int
	// Mismatch is the penalty of one substitution column: 2(M − X).
	Mismatch int
	// GapOpen is the penalty of opening a gap: −2·Open (0 under a linear
	// gap model).
	GapOpen int
	// GapExtend is the penalty of each gap column: M − 2·Extend.
	GapExtend int
}

// FromScoring derives WFA penalties from a similarity scoring system, or
// reports why the system is not WFA-compatible: the matrix must be uniform
// over the alphabet (one match score M on the diagonal, one mismatch score
// X = everywhere else, M > X) and the gap model valid in the usual sense
// (Extend < 0, Open <= 0).
func FromScoring(m *scoring.Matrix, a *seq.Alphabet, gap scoring.Gap) (Penalties, error) {
	if m == nil || a == nil {
		return Penalties{}, errors.New("wfa: scoring matrix and alphabet are required")
	}
	if err := gap.Validate(); err != nil {
		return Penalties{}, fmt.Errorf("wfa: %w", err)
	}
	letters := a.Letters
	if len(letters) < 2 {
		return Penalties{}, fmt.Errorf("wfa: alphabet %s has fewer than two letters", a.Name)
	}
	match := m.Score(letters[0], letters[0])
	mis, haveMis := 0, false
	for i, x := range letters {
		if s := m.Score(x, x); s != match {
			return Penalties{}, fmt.Errorf("wfa: matrix %s is not uniform: match %c/%c scores %d, %c/%c scores %d",
				m.Name, letters[0], letters[0], match, x, x, s)
		}
		for _, y := range letters[i+1:] {
			s := m.Score(x, y)
			if !haveMis {
				mis, haveMis = s, true
			} else if s != mis {
				return Penalties{}, fmt.Errorf("wfa: matrix %s is not uniform: mismatch scores differ (%d vs %d at %c/%c)",
					m.Name, mis, s, x, y)
			}
		}
	}
	if match <= mis {
		return Penalties{}, fmt.Errorf("wfa: matrix %s scores matches (%d) no better than mismatches (%d)", m.Name, match, mis)
	}
	p := Penalties{
		Match:         match,
		MismatchScore: mis,
		Mismatch:      2 * (match - mis),
		GapOpen:       -2 * gap.Open,
		GapExtend:     match - 2*gap.Extend,
	}
	if p.GapExtend <= 0 {
		return Penalties{}, fmt.Errorf("wfa: match score %d and gap extend %d yield a non-positive gap penalty", match, gap.Extend)
	}
	return p, nil
}

// Compatible reports whether the scoring system admits an exact WFA run.
func Compatible(m *scoring.Matrix, a *seq.Alphabet, gap scoring.Gap) bool {
	_, err := FromScoring(m, a, gap)
	return err == nil
}

// Options carries the optional resource hooks of a WFA run; the zero value
// runs unbudgeted, uncounted and untraced.
type Options struct {
	// Budget bounds wavefront memory (in the repository's 8-byte DP-entry
	// unit; two packed uint32 cells count as one entry). Exceeding it
	// returns an error wrapping memory.ErrExceeded.
	Budget *memory.Budget
	// Counters receives cell counts and serves cancellation polls.
	Counters *stats.Counters
	// Obs is the run's instrumentation handle: Align brackets its wfa-fill
	// and traceback phases through it, BiAlign its single wfa-biwfa phase
	// (obs.Run.Phase). The zero value records no spans or events.
	Obs obs.Run
}

// Backtrace ops, stored in the low 3 bits of a packed cell. The remaining
// bits hold offset+1, so a zero cell means "diagonal not reached".
const (
	opNone    uint32 = iota // initial M[0][0] cell
	opMism                  // M from M[s−x][k] + substitution
	opFromI                 // M closes an insertion: I[s][k]
	opFromD                 // M closes a deletion: D[s][k]
	opInsOpen               // I opens from M[s−o−e][k−1]
	opInsExt                // I extends from I[s−e][k−1]
	opDelOpen               // D opens from M[s−o−e][k+1]
	opDelExt                // D extends from D[s−e][k+1]
)

func pack(offset int, op uint32) uint32 { return uint32(offset+1)<<3 | op }

// wavefront is the furthest-reaching front of one (penalty, component): a
// packed cell per diagonal in [lo, lo+len(cells)).
type wavefront struct {
	lo    int
	cells []uint32
}

// get returns the offset and op stored for diagonal k, or ok=false when the
// diagonal is outside the front or not reached.
func (w *wavefront) get(k int) (offset int, op uint32, ok bool) {
	if w == nil || k < w.lo || k >= w.lo+len(w.cells) {
		return 0, 0, false
	}
	c := w.cells[k-w.lo]
	if c == 0 {
		return 0, 0, false
	}
	return int(c>>3) - 1, c & 7, true
}

// maxPooledCells caps the capacity of slices returned to the pool, so one
// huge run does not pin its peak wavefront width forever.
const maxPooledCells = 1 << 22

var wavefrontPool = sync.Pool{New: func() any { return new(wavefront) }}

type solver struct {
	a, b       []byte
	m, n       int
	pen        Penalties
	mw, iw, dw []*wavefront // per-penalty fronts of the M/I/D components
	budget     *memory.Budget
	reserved   int64
	counters   *stats.Counters
	poll       stats.Poll
}

// Align computes the optimal global alignment of a and b under a uniform
// scoring system, returning the same similarity score and an equally optimal
// path as the full-matrix DP (the path itself may differ between backends;
// both validate and re-score identically).
func Align(a, b *seq.Sequence, mat *scoring.Matrix, gap scoring.Gap, opt Options) (fm.Result, error) {
	if a == nil || b == nil {
		return fm.Result{}, errors.New("wfa: both sequences are required")
	}
	pen, err := FromScoring(mat, a.Alphabet, gap)
	if err != nil {
		return fm.Result{}, err
	}
	ra, rb := a.Residues, b.Residues
	m, n := len(ra), len(rb)
	if m > MaxLen || n > MaxLen {
		return fm.Result{}, fmt.Errorf("wfa: sequence longer than %d residues", MaxLen)
	}
	if m == 0 || n == 0 {
		// One (or both) sequences empty: the alignment is a single gap.
		return fm.Result{Score: int64(gap.Cost(m + n)), Path: gapPath(m, n)}, nil
	}

	path, cost, err := alignFull(ra, rb, pen, opt)
	if err != nil {
		return fm.Result{}, err
	}
	score, err := pen.Score(m, n, int64(cost))
	if err != nil {
		return fm.Result{}, err
	}
	return fm.Result{Score: score, Path: path}, nil
}

// gapPath is the all-gap path of an alignment with one empty side: every
// column of b, then every row of a.
func gapPath(m, n int) align.Path {
	moves := make([]align.Move, 0, m+n)
	for i := 0; i < n; i++ {
		moves = append(moves, align.Left)
	}
	for i := 0; i < m; i++ {
		moves = append(moves, align.Up)
	}
	return align.NewPath(moves)
}

// Score recovers the similarity score of an alignment whose optimal penalty
// is cost: S = (M·(m+n) − cost)/2. The parity always works out for paths of
// the converted penalty model; an odd sum means the caller mixed models.
func (p Penalties) Score(m, n int, cost int64) (int64, error) {
	total := int64(p.Match)*int64(m+n) - cost
	if total%2 != 0 {
		return 0, fmt.Errorf("wfa: internal error: odd score sum %d", total)
	}
	return total / 2, nil
}

// penaltyBound is the terminating upper bound of a penalty search: mismatch
// along the whole shorter sequence plus one gap for the length difference.
// Computed in int64 so pathological penalty × length products near MaxLen
// cannot wrap a 32-bit int; bounds past the platform int range are rejected
// (such a search could never be iterated anyway).
func penaltyBound(m, n int, pen Penalties) (int, error) {
	diff := int64(m) - int64(n)
	if diff < 0 {
		diff = -diff
	}
	minLen := int64(m)
	if int64(n) < minLen {
		minLen = int64(n)
	}
	bound := int64(pen.Mismatch) * minLen
	if diff > 0 {
		bound += int64(pen.GapOpen) + int64(pen.GapExtend)*diff
	}
	if bound > int64(math.MaxInt)-1 {
		return 0, fmt.Errorf("wfa: penalty bound %d overflows the platform int", bound)
	}
	return int(bound), nil
}

// alignFull runs the full-history unidirectional kernel over raw residue
// slices (both non-empty), returning the backtraced path and the optimal
// penalty. This is the memory-hungry engine — every per-penalty wavefront is
// retained for backtrace — so BiAlign only invokes it on small subproblems.
func alignFull(ra, rb []byte, pen Penalties, opt Options) (align.Path, int, error) {
	m, n := len(ra), len(rb)
	s := &solver{
		a: ra, b: rb, m: m, n: n, pen: pen,
		budget: opt.Budget, counters: opt.Counters, poll: opt.Counters.StartPoll(),
	}
	defer s.release()

	// The loop must terminate below the bound; running past it means the
	// recurrence is broken.
	bound, err := penaltyBound(m, n, pen)
	if err != nil {
		return align.Path{}, 0, err
	}

	tags := obs.Tags{Rows: m, Cols: n}
	ph := opt.Obs.Phase(obs.CatWFA, obs.SpanWFAFill)
	kFin := n - m
	cost := -1
	for sc := 0; sc <= bound; sc++ {
		if err = s.compute(sc); err != nil {
			break
		}
		if off, _, ok := s.mw[sc].get(kFin); ok && off >= n {
			cost = sc
			break
		}
	}
	ph.End(tags)
	if err != nil {
		return align.Path{}, 0, err
	}
	if cost < 0 {
		return align.Path{}, 0, fmt.Errorf("wfa: internal error: no alignment within penalty bound %d", bound)
	}

	ph = opt.Obs.Phase(obs.CatWFA, obs.SpanTraceback)
	path, err := s.backtrace(cost)
	ph.End(tags)
	if err != nil {
		return align.Path{}, 0, err
	}
	return path, cost, nil
}

// valid reports whether offset h on diagonal k is inside the DP matrix
// (h columns of b and h−k rows of a consumed).
func (s *solver) valid(h, k int) bool {
	v := h - k
	return h >= 0 && h <= s.n && v >= 0 && v <= s.m
}

// extend advances offset h along diagonal k while residues match.
func (s *solver) extend(h, k int) int {
	v := h - k
	for h < s.n && v < s.m && s.a[v] == s.b[h] {
		h++
		v++
	}
	return h
}

// newWavefront reserves and returns a zeroed front over diagonals [lo, hi].
func (s *solver) newWavefront(lo, hi int) (*wavefront, error) {
	width := hi - lo + 1
	charge := int64(width+1) / 2 // two uint32 cells per 8-byte budget entry
	if err := s.budget.Reserve(charge); err != nil {
		return nil, err
	}
	s.reserved += charge
	w := wavefrontPool.Get().(*wavefront)
	w.lo = lo
	if cap(w.cells) < width {
		w.cells = make([]uint32, width)
	} else {
		w.cells = w.cells[:width]
		clear(w.cells)
	}
	return w, nil
}

func (s *solver) release() {
	for _, fronts := range [][]*wavefront{s.mw, s.iw, s.dw} {
		for _, w := range fronts {
			if w == nil {
				continue
			}
			if cap(w.cells) > maxPooledCells {
				w.cells = nil
			}
			wavefrontPool.Put(w)
		}
	}
	s.mw, s.iw, s.dw = nil, nil, nil
	s.budget.Release(s.reserved)
	s.reserved = 0
}

// bounds returns the union diagonal range of the given fronts.
func bounds(fronts ...*wavefront) (lo, hi int, any bool) {
	for _, w := range fronts {
		if w == nil || len(w.cells) == 0 {
			continue
		}
		wlo, whi := w.lo, w.lo+len(w.cells)-1
		if !any {
			lo, hi, any = wlo, whi, true
			continue
		}
		if wlo < lo {
			lo = wlo
		}
		if whi > hi {
			hi = whi
		}
	}
	return lo, hi, any
}

// compute fills the penalty-sc wavefronts of all three components from the
// earlier fronts the recurrence references.
func (s *solver) compute(sc int) error {
	p := s.pen
	if sc == 0 {
		w, err := s.newWavefront(0, 0)
		if err != nil {
			return err
		}
		w.cells[0] = pack(s.extend(0, 0), opNone)
		s.mw = append(s.mw, w)
		s.iw = append(s.iw, nil)
		s.dw = append(s.dw, nil)
		return nil
	}

	var mx, mo, ie, de *wavefront
	if sc >= p.Mismatch {
		mx = s.mw[sc-p.Mismatch]
	}
	if sc >= p.GapOpen+p.GapExtend {
		mo = s.mw[sc-p.GapOpen-p.GapExtend]
	}
	if sc >= p.GapExtend {
		ie = s.iw[sc-p.GapExtend]
		de = s.dw[sc-p.GapExtend]
	}
	lo, hi, any := bounds(mx, mo, ie, de)
	if !any {
		s.mw = append(s.mw, nil)
		s.iw = append(s.iw, nil)
		s.dw = append(s.dw, nil)
		return nil
	}
	lo--
	hi++
	if lo < -s.m {
		lo = -s.m
	}
	if hi > s.n {
		hi = s.n
	}
	wi, err := s.newWavefront(lo, hi)
	if err != nil {
		return err
	}
	wd, err := s.newWavefront(lo, hi)
	if err != nil {
		return err
	}
	wm, err := s.newWavefront(lo, hi)
	if err != nil {
		return err
	}
	for k := lo; k <= hi; k++ {
		// I: one more column of b (offset and diagonal both advance).
		bi, oi := -1, opNone
		if off, _, ok := mo.get(k - 1); ok && s.valid(off+1, k) {
			bi, oi = off+1, opInsOpen
		}
		if off, _, ok := ie.get(k - 1); ok && off+1 > bi && s.valid(off+1, k) {
			bi, oi = off+1, opInsExt
		}
		if bi >= 0 {
			wi.cells[k-lo] = pack(bi, oi)
		}
		// D: one more row of a (offset fixed, diagonal falls).
		bd, od := -1, opNone
		if off, _, ok := mo.get(k + 1); ok && s.valid(off, k) {
			bd, od = off, opDelOpen
		}
		if off, _, ok := de.get(k + 1); ok && off > bd && s.valid(off, k) {
			bd, od = off, opDelExt
		}
		if bd >= 0 {
			wd.cells[k-lo] = pack(bd, od)
		}
		// M: substitution or gap close, then greedy diagonal extension.
		// The preference order mism ≥ deletion ≥ insertion echoes the DP
		// kernels' diag > up > left tie-break.
		bm, om := -1, opNone
		if off, _, ok := mx.get(k); ok && s.valid(off+1, k) {
			bm, om = off+1, opMism
		}
		if off, _, ok := wd.get(k); ok && off > bm {
			bm, om = off, opFromD
		}
		if off, _, ok := wi.get(k); ok && off > bm {
			bm, om = off, opFromI
		}
		if bm >= 0 {
			wm.cells[k-lo] = pack(s.extend(bm, k), om)
		}
	}
	s.iw = append(s.iw, wi)
	s.dw = append(s.dw, wd)
	s.mw = append(s.mw, wm)
	cells := 3 * (hi - lo + 1)
	s.counters.Add(stats.Cells, int64(cells))
	return s.poll.Tick(cells)
}

// Backtrace components.
const (
	compM = iota
	compI
	compD
)

var errBacktrace = errors.New("wfa: internal error: broken backtrace chain")

// backtrace walks the stored ops backwards from the terminal M cell,
// emitting moves into an align.Builder (which reverses once at the end).
// Cancellation is polled on the stats.Poll cadence throughout the walk —
// the walk is O(m+n+s) long, so a cancelled job must not stay live for all
// of it the way it would if only the terminal branch checked.
func (s *solver) backtrace(cost int) (align.Path, error) {
	p := s.pen
	bld := align.NewBuilder(s.m + s.n)
	comp := compM
	sc, k := cost, s.n-s.m
	h, _, ok := s.mw[sc].get(k)
	if !ok {
		return align.Path{}, errBacktrace
	}
	for steps := int64(0); ; steps++ {
		if steps > 2*(int64(s.m)+int64(s.n))+int64(cost) {
			return align.Path{}, errBacktrace
		}
		if err := s.poll.Tick(1); err != nil {
			return align.Path{}, err
		}
		switch comp {
		case compM:
			_, op, ok := s.mw[sc].get(k)
			if !ok {
				return align.Path{}, errBacktrace
			}
			if op == opNone {
				if sc != 0 || k != 0 {
					return align.Path{}, errBacktrace
				}
				if err := s.poll.Tick(h); err != nil {
					return align.Path{}, err
				}
				for ; h > 0; h-- {
					bld.Push(align.Diag)
				}
				s.counters.Add(stats.TracebackSteps, int64(bld.Len()))
				return bld.Path(), nil
			}
			// Rewind the greedy match extension down to the pre-extension
			// base offset of the stored op.
			var base int
			switch op {
			case opMism:
				off, _, ok := s.mw[sc-p.Mismatch].get(k)
				if !ok {
					return align.Path{}, errBacktrace
				}
				base = off + 1
			case opFromI:
				off, _, ok := s.iw[sc].get(k)
				if !ok {
					return align.Path{}, errBacktrace
				}
				base = off
			case opFromD:
				off, _, ok := s.dw[sc].get(k)
				if !ok {
					return align.Path{}, errBacktrace
				}
				base = off
			default:
				return align.Path{}, errBacktrace
			}
			if err := s.poll.Tick(h - base); err != nil {
				return align.Path{}, err
			}
			for t := h - base; t > 0; t-- {
				bld.Push(align.Diag)
			}
			h = base
			switch op {
			case opMism:
				bld.Push(align.Diag) // the substitution column
				sc -= p.Mismatch
				h--
			case opFromI:
				comp = compI
			case opFromD:
				comp = compD
			}
		case compI:
			_, op, ok := s.iw[sc].get(k)
			if !ok {
				return align.Path{}, errBacktrace
			}
			bld.Push(align.Left)
			h--
			k--
			switch op {
			case opInsOpen:
				sc -= p.GapOpen + p.GapExtend
				comp = compM
			case opInsExt:
				sc -= p.GapExtend
			default:
				return align.Path{}, errBacktrace
			}
		case compD:
			_, op, ok := s.dw[sc].get(k)
			if !ok {
				return align.Path{}, errBacktrace
			}
			bld.Push(align.Up)
			k++
			switch op {
			case opDelOpen:
				sc -= p.GapOpen + p.GapExtend
				comp = compM
			case opDelExt:
				sc -= p.GapExtend
			default:
				return align.Path{}, errBacktrace
			}
		}
	}
}
