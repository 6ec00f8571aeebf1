package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"fastlsa"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wAlignDivergence = "align-divergence"
	wAlignProtein    = "align-parallel-protein"
	wSearchStream    = "search-stream"
	wJobsDurable     = "jobs-durable"
)

var workloadNames = []string{wAlignDivergence, wAlignProtein, wSearchStream, wJobsDurable}

// Operation kinds: which endpoint a workload drives.
const (
	kindAlign  = "align"
	kindSearch = "search"
	kindJob    = "job"
)

// jobsRate is the jobs-durable open-loop arrival rate in jobs per second:
// about half the closed-loop capacity of ~250 jobs/s measured on a 2-vCPU
// host (see README.md).
const jobsRate = 125

// pair is one alignment request with its reference score.
type pair struct {
	a, b *fastlsa.Sequence
	body []byte // POST /v1/align (or the align part of a job) body
	ref  int64
}

// query is one corpus search with its index-free reference hits.
type query struct {
	q *fastlsa.Sequence
	// partner is the query's first planted homolog, which the server's
	// reconstruct stage aligns it against; nil for an unrelated query.
	partner *fastlsa.Sequence
	path    string // GET /v1/search path and query string
	ref     []hitKey
}

// hitKey identifies one ranked search hit.
type hitKey struct {
	Index int   `json:"index"`
	Score int64 `json:"score"`
}

// workload is one fully generated, seeded request sequence.
type workload struct {
	name       string
	kind       string
	matrixName string
	matrix     *fastlsa.Matrix
	gap        fastlsa.Gap
	clients    int // closed-loop clients (open loop: connection cap)
	workers    int // per-request "workers"
	serverArgs []string

	pairs   []*pair
	queries []*query
	corpus  []*fastlsa.Sequence
	// corpusResidues is the corpus size in residues.
	corpusResidues int
	// minScore is the search score floor; topK the hit count.
	minScore int64
	topK     int
}

// ladder lays out levels x len(lengths) items so that every prefix of the
// sequence is close to balanced: consecutive items cycle through the levels,
// and rounds visit the lengths in bit-reversed order (low, high, middle, ...),
// so a closed loop that stops mid-pool still sees a representative mix.
func ladder(levels int, lengths []int) [][2]int {
	r := len(lengths)
	order := bitReversed(r)
	out := make([][2]int, 0, levels*r)
	for _, round := range order {
		for l := 0; l < levels; l++ {
			out = append(out, [2]int{l, (round + l) % r})
		}
	}
	return out
}

// bitReversed returns 0..n-1 in bit-reversal order of their ranks (n need
// not be a power of two: values past n are skipped).
func bitReversed(n int) []int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := make([]int, 0, n)
	for i := 0; i < 1<<bits; i++ {
		rev := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				rev |= 1 << (bits - 1 - b)
			}
		}
		if rev < n {
			out = append(out, rev)
		}
	}
	return out
}

// spread returns n lengths evenly spaced over [lo, hi].
func spread(lo, hi, n int) []int {
	out := make([]int, n)
	for i := range out {
		if n == 1 {
			out[i] = lo
			continue
		}
		out[i] = lo + (hi-lo)*i/(n-1)
	}
	return out
}

func divergenceModel(d float64) fastlsa.MutationModel {
	return fastlsa.MutationModel{
		SubstitutionRate: d,
		InsertionRate:    d / 10,
		DeletionRate:     d / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}
}

// newWorkload generates every input of the named workload from seed; smoke
// selects the seconds-long sizes the package's own tests run.
func newWorkload(name string, seed int64, smoke bool, workDir string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	baseArgs := []string{"-quiet", "-engine-workers", "2", "-queue-depth", "256", "-drain", "2"}
	switch name {
	case wAlignDivergence:
		w := &workload{name: name, kind: kindAlign, matrixName: "dna", gap: fastlsa.Linear(-4),
			clients: 2, workers: 1, serverArgs: baseArgs}
		// 15% rather than 20%: the router's identity estimate of a 20% pair
		// straddles its 0.75 threshold (about one pair in ten goes to
		// FastLSA), which made the run-to-run mix unsteady. The extra 2% rung
		// makes the level count odd, so the latency median falls inside one
		// level's cluster (the 30% pairs on FastLSA) instead of on the gap
		// between two.
		levels := []float64{0.001, 0.01, 0.02, 0.05, 0.10, 0.15, 0.30}
		lengths := spread(2000, 4000, 24)
		if smoke {
			lengths = spread(300, 600, 2)
		}
		return w, w.genPairs(rng, fastlsa.DNA, levels, lengths)
	case wAlignProtein:
		w := &workload{name: name, kind: kindAlign, matrixName: "blosum62", gap: fastlsa.Affine(-11, -1),
			clients: 1, workers: 2, serverArgs: baseArgs}
		lengths := spread(4000, 8000, 32)
		if smoke {
			lengths = spread(300, 600, 2)
		}
		return w, w.genPairs(rng, fastlsa.Protein, []float64{0.20}, lengths)
	case wJobsDurable:
		dir, err := os.MkdirTemp(workDir, "journal-")
		if err != nil {
			return nil, err
		}
		// The journal runs the server's default fsync policy (interval):
		// under "always" every job waits on about eight fsyncs, whose time on
		// shared storage swung the latency tail by more than 25% between
		// runs. journal.append_p50_us.always still measures that cost.
		w := &workload{name: name, kind: kindJob, matrixName: "dna", gap: fastlsa.Linear(-4),
			clients: 2, workers: 1,
			serverArgs: append(baseArgs, "-data-dir", dir, "-journal-fsync", "interval")}
		// 960 pairs for ~1900 jobs a run: with 48 pairs the p50 and p99 each
		// sat on one pair, whose cost changed with the seed.
		lengths := spread(400, 1600, 320)
		if smoke {
			lengths = spread(200, 400, 2)
		}
		return w, w.genPairs(rng, fastlsa.DNA, []float64{0.01, 0.05, 0.30}, lengths)
	case wSearchStream:
		w := &workload{name: name, kind: kindSearch, matrixName: "dna", gap: fastlsa.Linear(-12),
			clients: 2, workers: 1, minScore: 540, topK: 10}
		entries, homologs, unrelated := 20000, 5, 3
		if smoke {
			entries, homologs, unrelated = 400, 1, 1
		}
		path, err := w.genSearch(rng, entries, homologs, unrelated, workDir)
		if err != nil {
			return nil, err
		}
		w.serverArgs = append(baseArgs, "-corpus", path, "-corpus-alphabet", "dna")
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// alignBody is the POST /v1/align request shape.
type alignBody struct {
	A       string  `json:"a"`
	B       string  `json:"b"`
	Matrix  string  `json:"matrix"`
	Gap     gapBody `json:"gap"`
	Workers int     `json:"workers"`
}

type gapBody struct {
	Open   int `json:"open,omitempty"`
	Extend int `json:"extend"`
}

func (w *workload) genPairs(rng *rand.Rand, alpha *fastlsa.Alphabet, levels []float64, lengths []int) error {
	m, err := fastlsa.MatrixByName(w.matrixName)
	if err != nil {
		return err
	}
	w.matrix = m
	for _, item := range ladder(len(levels), lengths) {
		d := levels[item[0]]
		n := lengths[item[1]]
		n += rng.Intn(n/50+1) - n/100 // ±1% jitter: each seed sees fresh sizes
		a, b, err := fastlsa.HomologousPair(n, alpha, divergenceModel(d), rng.Int63())
		if err != nil {
			return err
		}
		body, err := json.Marshal(alignBody{A: a.String(), B: b.String(), Matrix: w.matrixName,
			Gap: gapBody{Open: w.gap.Open, Extend: w.gap.Extend}, Workers: w.workers})
		if err != nil {
			return err
		}
		w.pairs = append(w.pairs, &pair{a: a, b: b, body: body})
	}
	return nil
}

// genSearch writes the corpus FASTA and builds the query pool: homologs
// queries with three planted homologs each in the corpus, and unrelated ones
// the filter prunes completely. An even split would put the latency median
// on the gap between the two queries' latency clusters, so the full size
// uses five homolog queries to three unrelated ones.
func (w *workload) genSearch(rng *rand.Rand, entries, homologs, unrelated int, workDir string) (string, error) {
	m, err := fastlsa.MatrixByName(w.matrixName)
	if err != nil {
		return "", err
	}
	w.matrix = m
	const length, planted = 120, 3
	// Rates low enough that planted homologs clear minScore (90% of the
	// 600-point self score), which is high enough for the q-gram lemma to
	// prune background entries.
	homModel := fastlsa.MutationModel{SubstitutionRate: 0.005, InsertionRate: 0.001, DeletionRate: 0.001,
		MaxIndelRun: 4, IndelExtend: 0.3}
	w.corpus = make([]*fastlsa.Sequence, entries)
	for i := range w.corpus {
		w.corpus[i] = fastlsa.RandomSequence(fmt.Sprintf("bg_%05d", i), length, fastlsa.DNA, rng.Int63())
	}
	// Planted homologs go to distinct, seeded positions.
	slots := rng.Perm(entries)
	total := homologs + unrelated
	for qi := 0; qi < total; qi++ {
		q := &query{q: fastlsa.RandomSequence(fmt.Sprintf("query_%d", qi), length, fastlsa.DNA, rng.Int63())}
		// Spread the homolog queries evenly through the pool.
		if qi*homologs%total < homologs {
			for h := 0; h < planted; h++ {
				slot := slots[0]
				slots = slots[1:]
				hom, err := homModel.Mutate(fmt.Sprintf("hom_%05d", slot), q.q, rng.Int63())
				if err != nil {
					return "", err
				}
				w.corpus[slot] = hom
				if h == 0 {
					q.partner = hom
				}
			}
		}
		v := url.Values{}
		v.Set("q", q.q.String())
		v.Set("id", q.q.ID)
		v.Set("matrix", w.matrixName)
		v.Set("gap", strconv.Itoa(w.gap.Extend))
		v.Set("topK", strconv.Itoa(w.topK))
		v.Set("minScore", strconv.FormatInt(w.minScore, 10))
		v.Set("workers", strconv.Itoa(w.workers))
		q.path = "/v1/search?" + v.Encode()
		w.queries = append(w.queries, q)
	}
	for _, s := range w.corpus {
		w.corpusResidues += s.Len()
	}
	path := filepath.Join(workDir, "corpus.fa")
	var buf bytes.Buffer
	if err := fastlsa.WriteFASTA(&buf, 80, w.corpus...); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// computeReferences fills every reference answer before any timing starts:
// fastlsa.Score for alignments, an index-free fastlsa.Search for queries.
func (w *workload) computeReferences() error {
	opt := fastlsa.Options{Matrix: w.matrix, Gap: w.gap, Workers: 1}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	fail := func(err error) {
		mu.Lock()
		if ferr == nil {
			ferr = err
		}
		mu.Unlock()
	}
	// Two goroutines over the pairs; search references parallelise inside
	// fastlsa.Search instead.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(w.pairs); i += 2 {
				p := w.pairs[i]
				s, err := fastlsa.Score(p.a, p.b, opt)
				if err != nil {
					fail(fmt.Errorf("reference score: %w", err))
					return
				}
				p.ref = s
			}
		}(g)
	}
	wg.Wait()
	for _, q := range w.queries {
		hits, err := fastlsa.Search(q.q, w.corpus, w.searchOptions(2))
		if err != nil {
			return fmt.Errorf("reference search: %w", err)
		}
		q.ref = hitKeys(hits)
	}
	return ferr
}

func (w *workload) searchOptions(workers int) fastlsa.SearchOptions {
	return fastlsa.SearchOptions{Matrix: w.matrix, Gap: w.gap, TopK: w.topK, MinScore: w.minScore, Workers: workers}
}

func hitKeys(hits []fastlsa.SearchHit) []hitKey {
	out := make([]hitKey, len(hits))
	for i, h := range hits {
		out[i] = hitKey{Index: h.Index, Score: h.Score}
	}
	return sortHits(out)
}

// sortHits orders hits by score, then index, so equal-score ties compare
// as sets.
func sortHits(h []hitKey) []hitKey {
	sort.Slice(h, func(i, j int) bool {
		if h[i].Score != h[j].Score {
			return h[i].Score > h[j].Score
		}
		return h[i].Index < h[j].Index
	})
	return h
}

func sameHits(a, b []hitKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// poolSize is the number of distinct operations the schedule cycles over.
func (w *workload) poolSize() int {
	if w.kind == kindSearch {
		return len(w.queries)
	}
	return len(w.pairs)
}

// nominalCells is the m·n work of operation i: the pair's DP matrix, or for
// a search the query against every corpus residue (the brute-force
// equivalent), so backends and filters compare in one unit.
func (w *workload) nominalCells(i int) float64 {
	if w.kind == kindSearch {
		return float64(w.queries[i%len(w.queries)].q.Len()) * float64(w.corpusResidues)
	}
	p := w.pairs[i%len(w.pairs)]
	return float64(p.a.Len()) * float64(p.b.Len())
}

// rescore recomputes a global alignment score from its CIGAR with the
// benchmark's own scorer (M = aligned pair, I = residue of a against a gap,
// D = residue of b against a gap; each gap run pays Open once), and checks
// the path consumes both sequences exactly.
func rescore(cigar string, a, b []byte, m *fastlsa.Matrix, gap fastlsa.Gap) (int64, error) {
	var score int64
	i, j, n := 0, 0, 0
	for k := 0; k < len(cigar); k++ {
		c := cigar[k]
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
			continue
		}
		if n == 0 {
			return 0, fmt.Errorf("cigar: empty run before %q", c)
		}
		switch c {
		case 'M', '=', 'X':
			if i+n > len(a) || j+n > len(b) {
				return 0, fmt.Errorf("cigar overruns the sequences")
			}
			for t := 0; t < n; t++ {
				score += int64(m.Score(a[i+t], b[j+t]))
			}
			i += n
			j += n
		case 'I':
			i += n
			score += int64(gap.Open) + int64(n)*int64(gap.Extend)
		case 'D':
			j += n
			score += int64(gap.Open) + int64(n)*int64(gap.Extend)
		default:
			return 0, fmt.Errorf("cigar: unknown op %q", c)
		}
		n = 0
	}
	if n != 0 || i != len(a) || j != len(b) {
		return 0, fmt.Errorf("cigar covers %dx%d, want %dx%d", i, j, len(a), len(b))
	}
	return score, nil
}

// checkAlign validates one alignment result against the pair's reference.
func checkAlign(p *pair, w *workload, score int64, cigar string) error {
	if score != p.ref {
		return fmt.Errorf("score %d, reference %d", score, p.ref)
	}
	got, err := rescore(cigar, p.a.Residues, p.b.Residues, w.matrix, w.gap)
	if err != nil {
		return err
	}
	if got != score {
		return fmt.Errorf("cigar rescores to %d, reported %d", got, score)
	}
	return nil
}
