// Package search implements homology search — the paper's motivating
// application (§1: "Pairwise sequence alignment is used to determine
// homology ... in both DNA and protein sequences") — as a three-phase
// pipeline:
//
//  1. filter: when Options.Index is set, a q-gram index probe prunes
//     database entries that provably cannot reach MinScore (the pruning is
//     lossless; see internal/index),
//  2. verify: the surviving candidates are scored with the O(min-space)
//     score-only kernel, in candidate order of decreasing score upper
//     bound, early-abandoning entries whose bound falls below the running
//     top-K floor,
//  3. reconstruct: the leading hits get their full alignments rebuilt in
//     FastLSA-bounded space.
//
// Without an index the verify phase degenerates to the exact brute-force
// scan of every entry — the reference semantics the filtered path must
// reproduce bit-for-bit above MinScore (pinned by recall_test.go). Hits are
// optionally annotated with Karlin-Altschul E-values from a fitted Gumbel
// tail. The scan parallelises across entries with a worker pool and the
// result is identical for any worker count.
package search

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/index"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/significance"
	"fastlsa/internal/stats"
)

// Hit is one database match.
type Hit struct {
	// Index is the database position; ID the sequence identifier.
	Index int
	ID    string
	// Score is the optimal local alignment score against the query.
	Score int64
	// EValue and BitScore are set when Options.Stats is provided.
	EValue   float64
	BitScore float64
	// Alignment is the reconstructed local alignment (only for the top
	// Options.Alignments hits; nil otherwise).
	Alignment *fm.LocalResult
}

// Options configures a search.
type Options struct {
	// Matrix and Gap define the scoring system (linear gaps only).
	Matrix *scoring.Matrix
	Gap    scoring.Gap
	// TopK bounds the number of hits returned (0 selects 10).
	TopK int
	// Alignments is how many of the top hits get full alignments
	// reconstructed (0 selects TopK; capped at TopK).
	Alignments int
	// MinScore drops candidates below the threshold (0 keeps everything
	// positive).
	MinScore int64
	// Workers parallelises the database scan (0 = GOMAXPROCS,
	// 1 = sequential).
	Workers int
	// Stats, when non-nil, annotates hits with E-values and bit scores.
	Stats *significance.Params
	// MaxEValue drops hits with a larger E-value (0 = no filter; requires
	// Stats).
	MaxEValue float64
	// Pairwise tunes the FastLSA reconstruction runs. Its Obs is replaced
	// by obs.Nested(): reconstructions run inside the search-reconstruct
	// phase and open no phases of their own.
	Pairwise core.Options
	// Counters, when non-nil, accumulates the scan's DP work and the
	// search funnel (SearchScanned / SearchCandidates / SearchExamined).
	Counters *stats.Counters
	// Index, when non-nil, is a q-gram index built over exactly this
	// database (index.Build(db, q)): the seed filter prunes entries that
	// cannot reach MinScore and the verify scan early-abandons entries
	// whose score upper bound falls below the running top-K floor. Both
	// prunes are lossless: the hits are identical to an index-free search.
	Index *index.Index
	// Probe, when non-nil, receives the filter-phase accounting of an
	// indexed search (untouched when Index is nil).
	Probe *index.Probe
	// OnHit, when non-nil, is called for each hit that enters the running
	// top-K during the verify scan — the streaming feed behind the
	// server's NDJSON /v1/search. Calls are serialised (never concurrent)
	// but hits are provisional and unordered: a later, better hit can push
	// an already-reported one out of the final top-K, and alignments and
	// final ranks are only in the returned slice.
	OnHit func(Hit)
	// Obs is the search's instrumentation handle: the filter, verify and
	// reconstruct phases are each bracketed once through it
	// (obs.Run.Phase). The zero value records no spans or events.
	Obs obs.Run
}

// topKFloor tracks the k-th best eligible score seen so far (a min-heap of
// at most k scores). The floor only rises, so a verify worker that reads a
// stale floor only abandons less aggressively — never incorrectly.
type topKFloor struct {
	mu    sync.Mutex
	k     int
	heap  []int64 // min-heap
	onHit func(Hit)
}

// floor returns the current k-th best score, or -1 while fewer than k
// eligible hits have been seen (every score of interest is positive).
func (f *topKFloor) floor() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.heap) < f.k {
		return -1
	}
	return f.heap[0]
}

// offer records an eligible hit. If it enters the running top-K the OnHit
// callback (if any) fires while the lock is held, serialising the stream.
func (f *topKFloor) offer(h Hit) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case len(f.heap) < f.k:
		f.heap = append(f.heap, h.Score)
		f.siftUp(len(f.heap) - 1)
	case h.Score > f.heap[0]:
		f.heap[0] = h.Score
		f.siftDown(0)
	case h.Score == f.heap[0]:
		// A floor tie can still reach the final top-K through the
		// database-order tie-break: report it, but the floor is unchanged.
	default:
		return
	}
	if f.onHit != nil {
		f.onHit(h)
	}
}

func (f *topKFloor) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if f.heap[p] <= f.heap[i] {
			return
		}
		f.heap[p], f.heap[i] = f.heap[i], f.heap[p]
		i = p
	}
}

func (f *topKFloor) siftDown(i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(f.heap) && f.heap[l] < f.heap[min] {
			min = l
		}
		if r < len(f.heap) && f.heap[r] < f.heap[min] {
			min = r
		}
		if min == i {
			return
		}
		f.heap[i], f.heap[min] = f.heap[min], f.heap[i]
		i = min
	}
}

// Query scans the database and returns ranked hits (best first; ties by
// database order). The result is identical for any worker count and — above
// MinScore — for indexed and brute-force scans alike.
func Query(query *seq.Sequence, db []*seq.Sequence, opt Options) ([]Hit, error) {
	if opt.Matrix == nil {
		return nil, fmt.Errorf("search: Options.Matrix is required")
	}
	gap := opt.Gap
	if gap == (scoring.Gap{}) {
		gap = scoring.Linear(-12)
	}
	if err := gap.Validate(); err != nil {
		return nil, err
	}
	if !gap.IsLinear() {
		return nil, fmt.Errorf("search: affine gap models not supported (the local kernel is linear-gap)")
	}
	if query.Len() == 0 {
		return nil, fmt.Errorf("search: empty query")
	}
	if len(db) == 0 {
		return nil, nil
	}
	if opt.MaxEValue > 0 && opt.Stats == nil {
		return nil, fmt.Errorf("search: MaxEValue requires Options.Stats")
	}
	topK := opt.TopK
	if topK <= 0 {
		topK = 10
	}

	// Phase 1: seed filter. Without an index every entry is a candidate
	// and the verify scan below is the exact brute-force reference.
	var cands []index.Candidate
	if opt.Index != nil {
		if got := opt.Index.Entries(); got != len(db) {
			return nil, fmt.Errorf("search: index covers %d entries, database has %d (build the index over the same database)", got, len(db))
		}
		ph := opt.Obs.Phase(obs.CatSearch, obs.SpanSearchFilter)
		list, probe, err := opt.Index.Candidates(query, opt.Matrix, gap, opt.MinScore)
		ph.End(obs.Tags{Rows: probe.Scanned, Cols: probe.Candidates})
		if err != nil {
			return nil, err
		}
		cands = list
		if opt.Probe != nil {
			*opt.Probe = probe
		}
		opt.Counters.Add(stats.SearchScanned, int64(probe.Scanned))
		opt.Counters.Add(stats.SearchCandidates, int64(len(cands)))
	} else {
		cands = make([]index.Candidate, len(db))
		for i := range db {
			cands[i] = index.Candidate{Entry: i}
		}
		opt.Counters.Add(stats.SearchScanned, int64(len(db)))
		opt.Counters.Add(stats.SearchCandidates, int64(len(db)))
	}

	// Phase 2: parallel score-only verify over the candidates.
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}
	// verified keeps the scan's end cell too: reconstruct starts from it.
	type verified struct {
		score      int64
		endA, endB int
		evalue     float64
		bits       float64
		eligible   bool
	}
	results := make([]verified, len(cands))
	floor := &topKFloor{k: topK, onHit: opt.OnHit}
	k := kernel.New(opt.Matrix, kernel.FromGap(gap), memory.Shared, opt.Counters)
	var (
		next     atomic.Int64
		abandon  atomic.Bool // indexed scans: bound fell below the floor
		examined atomic.Int64
		errMu    sync.Mutex
		scanErr  error
		scanIdx  int
	)
	setErr := func(dbIdx int, err error) {
		errMu.Lock()
		if scanErr == nil || dbIdx < scanIdx {
			scanErr, scanIdx = err, dbIdx
		}
		errMu.Unlock()
	}
	ph := opt.Obs.Phase(obs.CatSearch, obs.SpanSearchVerify)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				if err := opt.Counters.Cancelled(); err != nil {
					setErr(-1, err)
					return
				}
				c := cands[i]
				if opt.Index != nil {
					// Candidates are sorted by decreasing upper bound, so
					// once one bound drops strictly below the floor every
					// later candidate's does too. Ties must still be
					// examined: an equal score can win on the index
					// tie-break.
					if abandon.Load() {
						return
					}
					if fl := floor.floor(); fl >= 0 && c.UpperBound < fl {
						abandon.Store(true)
						return
					}
				}
				s, endA, endB, err := k.LocalScore(query.Residues, db[c.Entry].Residues)
				if err != nil {
					setErr(c.Entry, fmt.Errorf("search: database entry %d: %w", c.Entry, err))
					return
				}
				examined.Add(1)
				v := verified{score: s, endA: endA, endB: endB}
				if s > 0 && s >= opt.MinScore {
					v.eligible = true
					if opt.Stats != nil {
						v.evalue = opt.Stats.EValue(s, query.Len(), db[c.Entry].Len())
						v.bits = opt.Stats.BitScore(s)
						if opt.MaxEValue > 0 && v.evalue > opt.MaxEValue {
							v.eligible = false
						}
					}
				}
				results[i] = v
				if v.eligible {
					floor.offer(Hit{Index: c.Entry, ID: db[c.Entry].ID, Score: s, EValue: v.evalue, BitScore: v.bits})
				}
			}
		}()
	}
	wg.Wait()
	ph.End(obs.Tags{Rows: len(cands), Cols: int(examined.Load())})
	opt.Counters.Add(stats.SearchExamined, examined.Load())
	if scanErr != nil {
		return nil, scanErr
	}

	// Phase 3: rank and cut. Only eligible entries compete, so the result
	// is exactly the top-K eligible set by (score desc, database order) —
	// the invariant the early-abandon above preserves: a skipped entry's
	// true score is strictly below the floor at skip time, and the floor
	// only rises.
	order := make([]int, 0, len(cands))
	for i := range cands {
		if results[i].eligible {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if results[ia].score != results[ib].score {
			return results[ia].score > results[ib].score
		}
		return cands[ia].Entry < cands[ib].Entry
	})
	if len(order) > topK {
		order = order[:topK]
	}
	hits := make([]Hit, 0, len(order))
	for _, i := range order {
		e := cands[i].Entry
		hits = append(hits, Hit{
			Index: e, ID: db[e].ID, Score: results[i].score,
			EValue: results[i].evalue, BitScore: results[i].bits,
		})
	}

	// Phase 4: reconstruct alignments for the leading hits in
	// FastLSA-bounded space.
	nAlign := opt.Alignments
	if nAlign <= 0 || nAlign > len(hits) {
		nAlign = len(hits)
	}
	popt := opt.Pairwise
	if popt.Workers == 0 {
		popt.Workers = 1
	}
	if popt.Counters == nil {
		// Reconstruction runs inherit the scan's counters — and with them the
		// run's cancellation signal.
		popt.Counters = opt.Counters
	}
	popt.Obs = obs.Nested()
	ph = opt.Obs.Phase(obs.CatSearch, obs.SpanSearchReconstruct)
	defer ph.End(obs.Tags{Rows: nAlign})
	for i := 0; i < nAlign; i++ {
		if err := opt.Counters.Cancelled(); err != nil {
			return nil, err
		}
		v := results[order[i]]
		loc, err := core.AlignLocalFrom(query, db[hits[i].Index], opt.Matrix, gap, popt, v.score, v.endA, v.endB)
		if err != nil {
			return nil, fmt.Errorf("search: reconstructing hit %d (db %d): %w", i, hits[i].Index, err)
		}
		if loc.Score != hits[i].Score {
			return nil, fmt.Errorf("search: hit %d reconstruction scored %d, scan said %d (internal invariant)",
				i, loc.Score, hits[i].Score)
		}
		locCopy := loc
		hits[i].Alignment = &locCopy
	}
	return hits, nil
}
