// Bidirectional WFA (BiWFA): the linear-space mode of the wavefront kernel.
//
// The unidirectional solver in wfa.go retains every per-penalty wavefront so
// the backtrace can walk stored ops — O(s²) cells for an optimal penalty s.
// BiAlign instead works meet-in-the-middle, Hirschberg-style:
//
//  1. A score-only pass runs the same wavefront recurrence but keeps just a
//     bounded window of recent fronts (the recurrence looks back at most
//     max(Mismatch, GapOpen+GapExtend) penalties), yielding the optimal
//     penalty S in O(s) memory.
//  2. A split pass runs forward fronts from (0,0) up to penalty P = S/2 and
//     reverse fronts (the same kernel over the reversed residues) up to
//     S−P+window, each recording the pre-extension base offset of its M
//     cells. A cell covered by the forward M stretch [base, offset] at
//     penalty sf has a concrete prefix alignment of cost exactly sf ending
//     in the match state; a cell covered by the reverse M stretch at
//     sr = S−sf has a concrete suffix of cost exactly sr starting in the
//     match state. Where the two stretches intersect, prefix + suffix is a
//     full alignment of cost sf+sr = S — optimal — so both halves are
//     optimal for their subproblems and the recursion is exact.
//  3. Recurse on the two halves with their (now known) optimal penalties,
//     down to a small-penalty cutoff served by the unidirectional kernel,
//     appending moves left-to-right into one shared slice.
//
// Splitting inside a gap run is the classic BiWFA wrinkle: an I–I (or D–D)
// overlap stitches only with a gap-open correction (the two halves each pay
// the open the merged run pays once), and the resulting halves need
// boundary-state-constrained subproblems our kernels do not model. We keep
// the invariant simple instead: only match-state overlaps split, and when no
// M–M overlap lands inside the retained window (the optimum straddles a long
// gap there), the subproblem falls back to hirschberg.Align — also exact and
// linear-space, just without the wavefront speedup — so correctness never
// depends on the overlap existing. See docs/BACKENDS.md.

package wfa

import (
	"fmt"
	"slices"
	"sync"

	"fastlsa/internal/align"
	"fastlsa/internal/fm"
	"fastlsa/internal/hirschberg"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// biFront is one windowed wavefront of a bidirectional pass: offset+1 per
// diagonal (zero means unreached — no backtrace ops are kept, the
// bidirectional mode never backtraces), plus the pre-extension base offsets
// on M fronts of split passes.
type biFront struct {
	lo     int
	cells  []uint32
	base   []uint32
	charge int64
}

// get returns the offset stored for diagonal k, or ok=false when the
// diagonal is outside the front or not reached.
func (f *biFront) get(k int) (offset int, ok bool) {
	if f == nil || k < f.lo || k >= f.lo+len(f.cells) {
		return 0, false
	}
	c := f.cells[k-f.lo]
	if c == 0 {
		return 0, false
	}
	return int(c) - 1, true
}

// getBase returns the pre-extension base offset for diagonal k.
func (f *biFront) getBase(k int) (offset int, ok bool) {
	if f == nil || f.base == nil || k < f.lo || k >= f.lo+len(f.base) {
		return 0, false
	}
	c := f.base[k-f.lo]
	if c == 0 {
		return 0, false
	}
	return int(c) - 1, true
}

var biFrontPool = sync.Pool{New: func() any { return new(biFront) }}

// maxLookback is the deepest penalty the wavefront recurrence references
// when computing one front: sc−Mismatch for substitutions and
// sc−(GapOpen+GapExtend) for gap opens (extends look back only GapExtend,
// which never exceeds the open distance... unless GapOpen is 0, in which
// case they coincide).
func maxLookback(pen Penalties) int {
	l := pen.Mismatch
	if oe := pen.GapOpen + pen.GapExtend; oe > l {
		l = oe
	}
	return l
}

// biSolver runs the wavefront recurrence keeping only the window of fronts
// the recurrence itself looks back at: maxLookback+1 M fronts and
// GapExtend+1 I/D fronts, in per-penalty ring buffers. Older fronts are
// evicted (and their budget charge released) as new ones are computed, so
// the live charge is O(s) instead of the unidirectional solver's O(s²)
// retained history.
type biSolver struct {
	a, b       []byte
	m, n       int
	pen        Penalties
	mKeep      int // M ring length: max recurrence lookback, plus one
	idKeep     int // I/D ring length: the extend lookback, plus one
	mw, iw, dw []*biFront
	recordBase bool
	opt        Options
	reserved   int64
	poll       stats.Poll
}

func newBiSolver(a, b []byte, pen Penalties, opt Options, recordBase bool) *biSolver {
	mKeep := maxLookback(pen) + 1
	idKeep := pen.GapExtend + 1
	return &biSolver{
		a: a, b: b, m: len(a), n: len(b), pen: pen,
		mKeep: mKeep, idKeep: idKeep,
		mw:         make([]*biFront, mKeep),
		iw:         make([]*biFront, idKeep),
		dw:         make([]*biFront, idKeep),
		recordBase: recordBase,
		opt:        opt,
		poll:       opt.Counters.StartPoll(),
	}
}

func (s *biSolver) valid(h, k int) bool {
	v := h - k
	return h >= 0 && h <= s.n && v >= 0 && v <= s.m
}

func (s *biSolver) extend(h, k int) int {
	v := h - k
	for h < s.n && v < s.m && s.a[v] == s.b[h] {
		h++
		v++
	}
	return h
}

// newFront reserves and returns a zeroed windowed front over [lo, hi].
func (s *biSolver) newFront(lo, hi int, withBase bool) (*biFront, error) {
	width := hi - lo + 1
	charge := (int64(width) + 1) / 2 // two uint32 cells per 8-byte entry
	if withBase {
		charge *= 2
	}
	if err := s.opt.Budget.Reserve(charge); err != nil {
		return nil, err
	}
	s.reserved += charge
	f := biFrontPool.Get().(*biFront)
	f.lo = lo
	f.charge = charge
	if cap(f.cells) < width {
		f.cells = make([]uint32, width)
	} else {
		f.cells = f.cells[:width]
		clear(f.cells)
	}
	if !withBase {
		f.base = nil
	} else if cap(f.base) < width {
		f.base = make([]uint32, width)
	} else {
		f.base = f.base[:width]
		clear(f.base)
	}
	return f, nil
}

// freeFront returns a front to the pool and releases its budget charge.
func (s *biSolver) freeFront(f *biFront) {
	if f == nil {
		return
	}
	s.opt.Budget.Release(f.charge)
	s.reserved -= f.charge
	if cap(f.cells) > maxPooledCells {
		f.cells, f.base = nil, nil
	}
	biFrontPool.Put(f)
}

// dropID releases the I and D rings early: once a direction has finished
// stepping, only its M fronts (and their bases) feed the overlap scan.
func (s *biSolver) dropID() {
	for i := range s.iw {
		s.freeFront(s.iw[i])
		s.iw[i] = nil
	}
	for i := range s.dw {
		s.freeFront(s.dw[i])
		s.dw[i] = nil
	}
}

func (s *biSolver) release() {
	for _, ring := range [][]*biFront{s.mw, s.iw, s.dw} {
		for i := range ring {
			s.freeFront(ring[i])
			ring[i] = nil
		}
	}
}

// mfront returns the retained M front of penalty sc. The caller must only
// ask for penalties inside the ring window — an out-of-window sc would alias
// a newer front's slot.
func (s *biSolver) mfront(sc int) *biFront {
	if sc < 0 {
		return nil
	}
	return s.mw[sc%s.mKeep]
}

// biBounds returns the union diagonal range of the given fronts.
func biBounds(fronts ...*biFront) (lo, hi int, any bool) {
	for _, f := range fronts {
		if f == nil || len(f.cells) == 0 {
			continue
		}
		flo, fhi := f.lo, f.lo+len(f.cells)-1
		if !any {
			lo, hi, any = flo, fhi, true
			continue
		}
		if flo < lo {
			lo = flo
		}
		if fhi > hi {
			hi = fhi
		}
	}
	return lo, hi, any
}

// step computes the penalty-sc fronts of all three components, evicting the
// fronts that fall out of the lookback window. Penalties must be stepped
// sequentially from 0.
func (s *biSolver) step(sc int) error {
	p := s.pen
	mi, ii := sc%s.mKeep, sc%s.idKeep
	s.freeFront(s.mw[mi])
	s.mw[mi] = nil
	s.freeFront(s.iw[ii])
	s.iw[ii] = nil
	s.freeFront(s.dw[ii])
	s.dw[ii] = nil
	if sc == 0 {
		f, err := s.newFront(0, 0, s.recordBase)
		if err != nil {
			return err
		}
		f.cells[0] = uint32(s.extend(0, 0)) + 1
		if s.recordBase {
			f.base[0] = 1
		}
		s.mw[0] = f
		s.opt.Counters.Add(stats.Cells, 1)
		return s.poll.Tick(1)
	}

	var mx, mo, ie, de *biFront
	if sc >= p.Mismatch {
		mx = s.mw[(sc-p.Mismatch)%s.mKeep]
	}
	if sc >= p.GapOpen+p.GapExtend {
		mo = s.mw[(sc-p.GapOpen-p.GapExtend)%s.mKeep]
	}
	if sc >= p.GapExtend {
		ie = s.iw[(sc-p.GapExtend)%s.idKeep]
		de = s.dw[(sc-p.GapExtend)%s.idKeep]
	}
	lo, hi, any := biBounds(mx, mo, ie, de)
	if !any {
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
	wi, err := s.newFront(lo, hi, false)
	if err != nil {
		return err
	}
	wd, err := s.newFront(lo, hi, false)
	if err != nil {
		s.freeFront(wi)
		return err
	}
	wm, err := s.newFront(lo, hi, s.recordBase)
	if err != nil {
		s.freeFront(wi)
		s.freeFront(wd)
		return err
	}
	for k := lo; k <= hi; k++ {
		// Same recurrence and tie-breaks as solver.compute, minus the ops.
		bi := -1
		if off, ok := mo.get(k - 1); ok && s.valid(off+1, k) {
			bi = off + 1
		}
		if off, ok := ie.get(k - 1); ok && off+1 > bi && s.valid(off+1, k) {
			bi = off + 1
		}
		if bi >= 0 {
			wi.cells[k-lo] = uint32(bi) + 1
		}
		bd := -1
		if off, ok := mo.get(k + 1); ok && s.valid(off, k) {
			bd = off
		}
		if off, ok := de.get(k + 1); ok && off > bd && s.valid(off, k) {
			bd = off
		}
		if bd >= 0 {
			wd.cells[k-lo] = uint32(bd) + 1
		}
		bm := -1
		if off, ok := mx.get(k); ok && s.valid(off+1, k) {
			bm = off + 1
		}
		if bd > bm {
			bm = bd
		}
		if bi > bm {
			bm = bi
		}
		if bm >= 0 {
			wm.cells[k-lo] = uint32(s.extend(bm, k)) + 1
			if s.recordBase {
				wm.base[k-lo] = uint32(bm) + 1
			}
		}
	}
	s.iw[ii] = wi
	s.dw[ii] = wd
	s.mw[mi] = wm
	cells := 3 * (hi - lo + 1)
	s.opt.Counters.Add(stats.Cells, int64(cells))
	return s.poll.Tick(cells)
}

// biScore runs the windowed score-only pass, returning the optimal penalty.
func biScore(ra, rb []byte, pen Penalties, opt Options) (int, error) {
	s := newBiSolver(ra, rb, pen, opt, false)
	defer s.release()
	bound, err := penaltyBound(len(ra), len(rb), pen)
	if err != nil {
		return 0, err
	}
	kFin := len(rb) - len(ra)
	for sc := 0; sc <= bound; sc++ {
		if err := s.step(sc); err != nil {
			return 0, err
		}
		if off, ok := s.mfront(sc).get(kFin); ok && off >= len(rb) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("wfa: internal error: no alignment within penalty bound %d", bound)
}

// biCutoff is the penalty below which a subproblem runs on the
// unidirectional kernel: its retained history at a penalty this small is a
// few hundred cells, cheaper than two more windowed passes. It is also the
// floor that keeps the split sound — S > 2·(maxLookback+1) guarantees the
// forward pass stops strictly past the retained window (sf ≥ 1) and the
// reverse pass strictly short of S.
func biCutoff(pen Penalties) int {
	c := 2 * (maxLookback(pen) + 1)
	if c < 48 {
		c = 48
	}
	return c
}

var errBiSplit = fmt.Errorf("wfa: internal error: bidirectional split penalty mismatch")

// biSplit is one provably-optimal split cell: the optimal alignment passes
// through (v, h) in match state with a prefix of penalty exactly sf.
type biSplit struct {
	sf, v, h int
	ok       bool
}

// findSplit runs the forward pass to P = S/2 and the reverse pass to
// S−P+window−1, then scans the retained M fronts for an overlap: a cell
// inside the forward M stretch [base, offset] at penalty sf and inside the
// reverse M stretch at penalty S−sf. Such a cell carries concrete prefix and
// suffix alignments of cost exactly sf and S−sf; their sum equals the
// optimum, so both halves are optimal and splitting there is exact. Not
// finding one (the optimum straddles a gap run longer than the window right
// at P) returns ok=false and the caller falls back.
func findSplit(fwd, rev *biSolver, S int) (biSplit, error) {
	P := S / 2
	for sc := 0; sc <= P; sc++ {
		if err := fwd.step(sc); err != nil {
			return biSplit{}, err
		}
	}
	fwd.dropID() // the scan only reads M fronts
	revTo := S - P + fwd.mKeep - 1
	for sc := 0; sc <= revTo; sc++ {
		if err := rev.step(sc); err != nil {
			return biSplit{}, err
		}
	}
	rev.dropID()
	m, n := fwd.m, fwd.n
	for sf := P; sf > P-fwd.mKeep && sf > 0; sf-- {
		fmf, rmf := fwd.mfront(sf), rev.mfront(S-sf)
		if fmf == nil || rmf == nil {
			continue
		}
		for i, c := range fmf.cells {
			if c == 0 {
				continue
			}
			k := fmf.lo + i
			offF := int(c) - 1
			baseF := int(fmf.base[i]) - 1
			// The reverse problem aligns the reversed residues: its cell
			// (vr, hr) is our cell (m−vr, n−hr), so its diagonal kr maps to
			// k = (n−m)−kr and its offsets map through h = n−hr.
			offR, ok := rmf.get((n - m) - k)
			if !ok {
				continue
			}
			baseR, ok := rmf.getBase((n - m) - k)
			if !ok {
				continue
			}
			lo, hi := n-offR, n-baseR
			if baseF > lo {
				lo = baseF
			}
			if offF < hi {
				hi = offF
			}
			for h := lo; h <= hi; h++ {
				// The corners cannot split anything; skip them (a corner
				// overlap would imply a full alignment cheaper than S).
				if v := h - k; (v != 0 || h != 0) && (v != m || h != n) {
					return biSplit{sf: sf, v: v, h: h, ok: true}, nil
				}
			}
		}
	}
	return biSplit{}, nil
}

// biRunner carries the shared state of one bidirectional recursion: the
// scoring system (for the hirschberg fallback), the resource hooks, and the
// move slice the subproblems append to left-to-right.
type biRunner struct {
	pen       Penalties
	mat       *scoring.Matrix
	gap       scoring.Gap
	alphabet  *seq.Alphabet
	opt       Options
	moves     []align.Move
	fallbacks int
}

// solve aligns a against b given their optimal penalty S, appending the
// path. ar and br are the reversed residues of a and b (reversed once at the
// top; subproblems slice them: the reverse of a[:v] is ar[len(a)-v:]).
func (r *biRunner) solve(a, ar, b, br []byte, S int) error {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		want := 0
		if m+n > 0 {
			want = r.pen.GapOpen + r.pen.GapExtend*(m+n)
		}
		if S != want {
			return errBiSplit
		}
		for i := 0; i < n; i++ {
			r.moves = append(r.moves, align.Left)
		}
		for i := 0; i < m; i++ {
			r.moves = append(r.moves, align.Up)
		}
		return nil
	}
	if S <= biCutoff(r.pen) {
		// The sub-run opens no phases of its own: the whole BiAlign run is one
		// wfa-biwfa phase, whose labels the sub-run inherits.
		path, cost, err := alignFull(a, b, r.pen, Options{Budget: r.opt.Budget, Counters: r.opt.Counters, Obs: obs.Nested()})
		if err != nil {
			return err
		}
		if cost != S {
			return errBiSplit
		}
		r.moves = append(r.moves, path.Moves()...)
		return nil
	}

	fwd := newBiSolver(a, b, r.pen, r.opt, true)
	rev := newBiSolver(ar, br, r.pen, r.opt, true)
	sp, err := findSplit(fwd, rev, S)
	fwd.release()
	rev.release()
	if err != nil {
		return err
	}
	if !sp.ok {
		return r.fallback(a, b, S)
	}
	if err := r.solve(a[:sp.v], ar[m-sp.v:], b[:sp.h], br[n-sp.h:], sp.sf); err != nil {
		return err
	}
	return r.solve(a[sp.v:], ar[:m-sp.v], b[sp.h:], br[:n-sp.h], S-sp.sf)
}

// fallback aligns a subproblem whose optimum has no match-state overlap in
// the retained window with hirschberg.Align — exact and linear-space — and
// cross-checks its score against the penalty the split derivation promised.
func (r *biRunner) fallback(a, b []byte, S int) error {
	r.fallbacks++
	sa := &seq.Sequence{ID: "biwfa-a", Residues: a, Alphabet: r.alphabet}
	sb := &seq.Sequence{ID: "biwfa-b", Residues: b, Alphabet: r.alphabet}
	// Like every BiWFA buffer but the fronts, the fallback is not charged
	// to the run's budget.
	res, err := hirschberg.Align(sa, sb, r.mat, r.gap, hirschberg.Options{}, nil, r.opt.Counters)
	if err != nil {
		return err
	}
	want, err := r.pen.Score(len(a), len(b), int64(S))
	if err != nil {
		return err
	}
	if res.Score != want {
		return errBiSplit
	}
	r.moves = append(r.moves, res.Path.Moves()...)
	return nil
}

// BiAlign computes the optimal global alignment of a and b under a uniform
// scoring system in O(s) memory, where s is the optimal penalty: the
// bidirectional (meet-in-the-middle) mode of the WFA kernel. Scores equal
// Align's exactly; paths validate and re-score identically. This is what the
// wfa backend serves — Align remains the reference kernel for small
// subproblems and differential tests.
func BiAlign(a, b *seq.Sequence, mat *scoring.Matrix, gap scoring.Gap, opt Options) (fm.Result, error) {
	if a == nil || b == nil {
		return fm.Result{}, fmt.Errorf("wfa: both sequences are required")
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
		return fm.Result{Score: int64(gap.Cost(m + n)), Path: gapPath(m, n)}, nil
	}

	ph := opt.Obs.Phase(obs.CatWFA, obs.SpanWFABi)
	defer ph.End(obs.Tags{Rows: m, Cols: n})
	S, err := biScore(ra, rb, pen, opt)
	if err != nil {
		return fm.Result{}, err
	}
	// The reversed copies are O(m+n) input scratch, uncharged like the
	// linear-space kernels' row buffers; subproblems slice them.
	r := &biRunner{
		pen: pen, mat: mat, gap: gap, alphabet: a.Alphabet, opt: opt,
		moves: make([]align.Move, 0, m+n),
	}
	revA, revB := slices.Clone(ra), slices.Clone(rb)
	slices.Reverse(revA)
	slices.Reverse(revB)
	if err := r.solve(ra, revA, rb, revB, S); err != nil {
		return fm.Result{}, err
	}
	score, err := pen.Score(m, n, int64(S))
	if err != nil {
		return fm.Result{}, err
	}
	return fm.Result{Score: score, Path: align.NewPath(r.moves)}, nil
}
