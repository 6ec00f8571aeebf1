// Package index implements the q-gram seed filter that turns corpus search
// from a brute-force O(corpus·mn) scan into a filter-then-verify pipeline
// (the architecture of ALAE; see PAPERS.md): an inverted index maps every
// length-q substring ("q-gram") of a sequence corpus to the entries
// containing it, a probe counts the q-grams an entry shares with the query,
// and the q-gram lemma converts a minimum-score threshold into a minimum
// shared-seed count, so entries below the floor provably cannot reach the
// threshold and are pruned without ever running the exact kernel.
//
// # Losslessness
//
// Pruning is lossless by construction: Candidates only drops an entry when
// the scoring system proves no local alignment of score >= minScore can
// exist against it. The proof needs an identity-dominant matrix — every
// off-diagonal score non-positive, so only exact residue matches contribute
// positively (DNASimple, DNAStrict). For matrices with positive off-diagonal
// entries (BLOSUM, IUPAC) the seed floor degenerates to zero and the filter
// keeps every entry long enough to reach the threshold: still lossless, just
// without seed pruning (Probe.Lossy stays false either way).
//
// # The bound
//
// Consider any local alignment with score >= S under match score at most a,
// and every error column (mismatch or gap position) costing at least d > 0.
// With M identity columns and E error columns, a·M − d·E >= S, so
// E <= (a·M − S)/d, and M >= ceil(S/a). The M identities split into at most
// E+1 runs; a run of length r contributes max(0, r−q+1) q-grams that occur
// as exact substrings of both query and entry, so the multiset-shared q-gram
// count is at least
//
//	g(M) = M − (q−1)·(floor((a·M − S)/d) + 1)
//
// minimised over feasible M (ceil(S/a) <= M <= min(queryLen, entryLen)).
// MinSharedGrams clamps the minimum at zero; a positive floor prunes. The
// same inequality inverted gives ScoreUpperBound: from an observed shared
// count the best attainable score, used to rank candidates (verify the most
// promising first) and to abandon hopeless ones early.
package index

import (
	"fmt"
	"sort"
	"sync"

	"fastlsa/internal/fault"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

// siteProbe is the fault-injection point struck by every index probe, so
// chaos rehearsals cover the filter path of the search pipeline.
var siteProbe = fault.NewSite("index.probe")

// MaxGrams bounds the gram universe (alphabet^q) an index will allocate
// posting-list headers for; Build rejects larger q.
const MaxGrams = 4 << 20

// posting is one entry of an inverted list: the corpus position and how many
// times the gram occurs there (clamped at MaxUint32, which no real sequence
// reaches).
type posting struct {
	entry int32
	count uint32
}

// Index is an immutable q-gram inverted index over a sequence corpus. Build
// once, probe concurrently: each Candidates call draws its own accumulator
// from counts, so any number of goroutines may probe the same Index.
type Index struct {
	q        int
	alphabet *seq.Alphabet
	sigma    int
	powQ     int // sigma^q, the gram-code modulus
	lens     []int32
	grams    [][]posting
	distinct int
	postings int64
	residues int64
	// counts recycles *[]int32 shared-count accumulators, one entry per
	// corpus sequence, handed back zeroed.
	counts sync.Pool
}

// Build constructs the inverted index for db with gram length q. Every entry
// must share one alphabet; alphabet^q must stay within MaxGrams (q up to 11
// for DNA, 4 for protein). Entries shorter than q contribute no grams but
// remain known to the index (they are handled by the length bound, not the
// seed floor). q = 0 selects DefaultQ for the corpus alphabet.
func Build(db []*seq.Sequence, q int) (*Index, error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("index: empty corpus")
	}
	a := db[0].Alphabet
	if q == 0 {
		q = DefaultQ(a)
	}
	if q < 2 {
		return nil, fmt.Errorf("index: gram length %d must be >= 2", q)
	}
	powQ := 1
	for i := 0; i < q; i++ {
		if powQ > MaxGrams/a.Size() {
			return nil, fmt.Errorf("index: %s^%d grams exceed the %d limit (use a smaller q)", a.Name, q, MaxGrams)
		}
		powQ *= a.Size()
	}
	ix := &Index{
		q:        q,
		alphabet: a,
		sigma:    a.Size(),
		powQ:     powQ,
		lens:     make([]int32, len(db)),
		grams:    make([][]posting, powQ),
	}
	counts := make(map[int]uint32, 1024)
	for e, s := range db {
		if s.Alphabet.Name != a.Name {
			return nil, fmt.Errorf("index: entry %d uses alphabet %s, corpus is %s", e, s.Alphabet.Name, a.Name)
		}
		ix.lens[e] = int32(s.Len())
		ix.residues += int64(s.Len())
		clear(counts)
		gramCodes(s.Residues, a, q, powQ, func(code int) {
			counts[code]++
		})
		for code, n := range counts {
			if len(ix.grams[code]) == 0 {
				ix.distinct++
			}
			ix.grams[code] = append(ix.grams[code], posting{entry: int32(e), count: n})
			ix.postings++
		}
	}
	return ix, nil
}

// DefaultQ picks the largest gram length whose universe fits 4^8 codes:
// 8 for DNA, 4 for IUPAC DNA, 3 for protein. Bigger alphabets already
// discriminate well at short q; DNA needs longer grams for the same power.
func DefaultQ(a *seq.Alphabet) int {
	q := 1
	pow := a.Size()
	for pow*a.Size() <= 1<<16 {
		pow *= a.Size()
		q++
	}
	if q < 2 {
		q = 2
	}
	return q
}

// gramCodes streams the base-sigma code of every length-q window of res.
func gramCodes(res []byte, a *seq.Alphabet, q, powQ int, emit func(code int)) {
	if len(res) < q {
		return
	}
	sigma := a.Size()
	code := 0
	for i, c := range res {
		code = code*sigma + a.Index(c)
		if i >= q {
			code -= a.Index(res[i-q]) * powQ
		}
		if i >= q-1 {
			emit(code)
		}
	}
}

// Q reports the gram length; Entries the corpus size; Alphabet the residue
// universe; DistinctGrams and Postings the index shape; Residues the total
// corpus residue count.
func (ix *Index) Q() int                  { return ix.q }
func (ix *Index) Entries() int            { return len(ix.lens) }
func (ix *Index) Alphabet() *seq.Alphabet { return ix.alphabet }
func (ix *Index) DistinctGrams() int      { return ix.distinct }
func (ix *Index) Postings() int64         { return ix.postings }
func (ix *Index) Residues() int64         { return ix.residues }

// Bound is the scoring-system abstraction the q-gram lemma runs on.
type Bound struct {
	// Match is the maximum diagonal (identity) score a.
	Match int
	// ErrCost is the minimum cost d of one error column — the cheapest of
	// the mismatch penalties and the per-position gap penalty.
	ErrCost int
	// Usable reports whether the lemma applies: identity-dominant matrix
	// (no positive off-diagonal score) and ErrCost > 0. When false the
	// filter cannot seed-prune and falls back to length/score-cap bounds.
	Usable bool
	// MaxScore is the maximum matrix entry, the per-column score cap used
	// for the fallback upper bound when the lemma is not usable.
	MaxScore int
}

// ScoringBound derives the lemma parameters from a scoring system.
func ScoringBound(m *scoring.Matrix, a *seq.Alphabet, gap scoring.Gap) Bound {
	b := Bound{MaxScore: m.Max()}
	offMax := 0
	first := true
	for _, x := range a.Letters {
		if s := m.Score(x, x); s > b.Match {
			b.Match = s
		}
		for _, y := range a.Letters {
			if x == y {
				continue
			}
			s := m.Score(x, y)
			if first || s > offMax {
				offMax = s
				first = false
			}
		}
	}
	if first {
		// Single-letter alphabet: no mismatches exist; the gap penalty is
		// the only error cost.
		offMax = -(-gap.Extend)
	}
	b.ErrCost = -offMax
	if g := -gap.Extend; g < b.ErrCost {
		b.ErrCost = g
	}
	b.Usable = offMax <= 0 && b.ErrCost > 0 && b.Match > 0
	return b
}

// MinSharedGrams is the q-gram lemma floor: any local alignment scoring at
// least minScore against an entry allowing at most maxMatches identity
// columns (min of query and entry length) shares at least the returned
// number of q-grams with it. Zero means the bound cannot prune.
func MinSharedGrams(q int, b Bound, minScore int64, maxMatches int) int {
	if !b.Usable || minScore <= 0 {
		return 0
	}
	lo := int((minScore + int64(b.Match) - 1) / int64(b.Match)) // ceil(S/a)
	if lo > maxMatches {
		// No alignment can reach minScore at all; the caller prunes on the
		// length bound before consulting the seed floor.
		return 0
	}
	min := 0
	for m := lo; m <= maxMatches; m++ {
		e := (int64(b.Match)*int64(m) - minScore) / int64(b.ErrCost)
		g := m - (q-1)*(int(e)+1)
		if m == lo || g < min {
			min = g
		}
		if min <= 0 {
			return 0
		}
	}
	return min
}

// ScoreUpperBound inverts the lemma: the best local alignment score
// attainable against an entry sharing `shared` q-grams with the query, with
// at most maxMatches identity columns. Used to rank candidates and to
// abandon entries whose ceiling is already below the running top-K floor.
func ScoreUpperBound(q int, b Bound, shared, maxMatches int) int64 {
	if maxMatches <= 0 {
		return 0
	}
	if !b.Usable {
		perCol := b.MaxScore
		if perCol < 0 {
			perCol = 0
		}
		return int64(perCol) * int64(maxMatches)
	}
	// The feasible region is M <= shared + (q-1)(E+1), M <= maxMatches,
	// scored a·M − d·E. The optimum sits either at the error-free ceiling
	// (M = shared + q − 1) or at full matches with the fewest errors the
	// shared count allows; take the larger.
	mFree := shared + q - 1
	if mFree > maxMatches {
		mFree = maxMatches
	}
	ub := int64(b.Match) * int64(mFree)
	if maxMatches > shared {
		e := int64((maxMatches-shared+q-2)/(q-1)) - 1
		if e < 0 {
			e = 0
		}
		if alt := int64(b.Match)*int64(maxMatches) - int64(b.ErrCost)*e; alt > ub {
			ub = alt
		}
	}
	if ub < 0 {
		ub = 0
	}
	return ub
}

// Candidate is one corpus entry surviving the seed filter.
type Candidate struct {
	// Entry is the corpus position.
	Entry int
	// Shared is the multiset-shared q-gram count with the query.
	Shared int
	// UpperBound is the best local alignment score consistent with Shared
	// (see ScoreUpperBound). Candidates sort by it descending, so verifying
	// in order raises the top-K floor as fast as possible.
	UpperBound int64
}

// Probe reports what one Candidates call did, for selectivity accounting.
type Probe struct {
	// Scanned is the corpus size; Candidates how many entries survived.
	Scanned, Candidates int
	// PrunedShort counts entries too short to ever reach minScore,
	// PrunedSeeds entries below the q-gram lemma floor, and PrunedBound
	// entries whose score upper bound falls below minScore.
	PrunedShort, PrunedSeeds, PrunedBound int
	// SeedFloor is the lemma floor for a full-length entry (0 = the scoring
	// system admits no seed pruning).
	SeedFloor int
	// Selectivity is Candidates/Scanned.
	Selectivity float64
}

// Candidates probes the index: entries that could align against query with
// score >= minScore (max(minScore, 1) — a reportable hit must be positive),
// sorted by score upper bound descending. The pruning is lossless: every
// entry holding a local alignment of score >= minScore is returned (see the
// package comment for the argument).
func (ix *Index) Candidates(query *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, minScore int64) ([]Candidate, Probe, error) {
	pr := Probe{Scanned: ix.Entries()}
	if err := siteProbe.Hit(); err != nil {
		return nil, pr, fmt.Errorf("index: probe: %w", err)
	}
	if query.Alphabet.Name != ix.alphabet.Name {
		return nil, pr, fmt.Errorf("index: query alphabet %s does not match corpus alphabet %s", query.Alphabet.Name, ix.alphabet.Name)
	}
	if minScore < 1 {
		minScore = 1
	}
	b := ScoringBound(m, ix.alphabet, gap)
	qlen := query.Len()
	if b.Match <= 0 {
		// No positive-scoring column exists; no entry can produce a hit.
		return nil, pr, nil
	}
	mLo := int((minScore + int64(b.Match) - 1) / int64(b.Match))

	// Shared-gram accumulation: walk the query's gram multiset through the
	// posting lists. The accumulator is per-call state, so concurrent
	// probes never share writes; the entry loop below zeroes it again.
	qCounts := make(map[int]uint32, qlen)
	gramCodes(query.Residues, ix.alphabet, ix.q, ix.powQ, func(code int) {
		qCounts[code]++
	})
	acc, _ := ix.counts.Get().(*[]int32)
	if acc == nil {
		acc = new([]int32)
		*acc = make([]int32, ix.Entries())
	}
	shared := *acc
	for code, qc := range qCounts {
		for _, p := range ix.grams[code] {
			c := p.count
			if qc < c {
				c = qc
			}
			shared[p.entry] += int32(c)
		}
	}

	// Seed floor per entry length, memoised over the (few) distinct
	// min(qlen, entryLen) values via a prefix-min over M. Runs of one length
	// hit the last-value cache and skip the map.
	memo := make(map[int]int, 8)
	lastM, lastF := -1, 0
	lookup := func(maxM int) int {
		if maxM == lastM {
			return lastF
		}
		f, ok := memo[maxM]
		if !ok {
			f = MinSharedGrams(ix.q, b, minScore, maxM)
			memo[maxM] = f
		}
		lastM, lastF = maxM, f
		return f
	}
	pr.SeedFloor = lookup(qlen)

	cands := make([]Candidate, 0, 64)
	for e := range ix.lens {
		sh := int(shared[e])
		shared[e] = 0
		maxM := int(ix.lens[e])
		if qlen < maxM {
			maxM = qlen
		}
		if maxM < mLo {
			pr.PrunedShort++
			continue
		}
		if sh < lookup(maxM) {
			pr.PrunedSeeds++
			continue
		}
		ub := ScoreUpperBound(ix.q, b, sh, maxM)
		if ub < minScore {
			pr.PrunedBound++
			continue
		}
		cands = append(cands, Candidate{Entry: e, Shared: sh, UpperBound: ub})
	}
	ix.counts.Put(acc) // zeroed by the loop; a panic above drops it instead
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].UpperBound != cands[j].UpperBound {
			return cands[i].UpperBound > cands[j].UpperBound
		}
		return cands[i].Entry < cands[j].Entry
	})
	pr.Candidates = len(cands)
	if pr.Scanned > 0 {
		pr.Selectivity = float64(pr.Candidates) / float64(pr.Scanned)
	}
	return cands, pr, nil
}
