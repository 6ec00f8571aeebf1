package fastlsa_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastlsa"
	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
	"fastlsa/internal/theory"
	"fastlsa/internal/wfa"
)

// The conformance harness checks the paper's correctness claim (§2.1) for
// every aligner in the repository at once: each one returns the optimal
// score of the full-matrix algorithm, with a valid path that rescores to it.
// The subjects are every registered backend and AlgoAuto (through
// fastlsa.Align), plus the exact entry points outside the registry. Each
// subject's Capabilities select the cases it serves, so a new backend is
// covered by its Register call alone.

// identicalPaths names the aligners whose traceback shares FM's
// diag > up > left tie-break: their paths equal FM's byte for byte. Keyed
// by the backend that served the run.
var identicalPaths = map[string]bool{
	backend.NameFastLSA:    true,
	backend.NameFullMatrix: true, // sequential, and FastLSA's parallel Base Case
	backend.NameCompact:    true,
	"fm-banded":            true,
}

// dpBackends compute every DPM cell at least once, so their Counters.Cells
// is at least m·n.
var dpBackends = map[string]bool{
	backend.NameFastLSA:    true,
	backend.NameFullMatrix: true,
	backend.NameHirschberg: true,
	backend.NameCompact:    true,
}

// confSystem is one scoring system: a matrix over an alphabet and a gap
// model.
type confSystem struct {
	name   string
	alpha  *seq.Alphabet
	matrix *scoring.Matrix
	gap    scoring.Gap
}

// confCase is one problem of the harness: a pair under a scoring system and
// mode, with the FastLSA parameters, worker count and memory budget every
// subject runs it with.
type confCase struct {
	name    string
	a, b    *seq.Sequence
	sys     confSystem
	mode    align.Mode
	k, base int
	workers int
	budget  int64
}

func (c confCase) String() string {
	return fmt.Sprintf("%s [%s %dx%d %v k=%d base=%d P=%d budget=%d]",
		c.name, c.sys.name, c.a.Len(), c.b.Len(), c.mode, c.k, c.base, c.workers, c.budget)
}

func (c confCase) options(counters *stats.Counters) fastlsa.Options {
	return fastlsa.Options{
		Matrix: c.sys.matrix, Gap: c.sys.gap, Mode: c.mode,
		K: c.k, BaseCells: c.base, Workers: c.workers, MemoryBudget: c.budget,
		Counters: counters,
	}
}

// confSubject is one aligner under test. run reports which backend served
// the case (for AlgoAuto, the routed one), which selects the identical-path
// and cell-count assertions.
type confSubject struct {
	name string
	caps backend.Capabilities
	// maxArea, when non-zero, skips cases above m·n = maxArea: the subject
	// holds a matrix-sized band or wavefront history.
	maxArea int
	// planned marks a subject whose FastLSA runs take parameters planned
	// against the budget (the AlgoAuto contract) rather than c's own, and
	// parallel one that runs every case on several workers whatever c says.
	planned, parallel bool
	run               func(c confCase, counters *stats.Counters) (res fm.Result, served string, err error)
}

// serves reports whether the subject's capabilities cover the case.
func (s confSubject) serves(c confCase) bool {
	return (s.maxArea == 0 || c.a.Len()*c.b.Len() <= s.maxArea) &&
		(c.mode.IsGlobal() || s.caps.EndsFree) &&
		(c.sys.gap.IsLinear() || s.caps.AffineGaps) &&
		(!s.caps.UniformScoresOnly || wfa.Compatible(c.sys.matrix, c.sys.alpha, c.sys.gap))
}

// facadeSubject runs fastlsa.Align with the given algorithm.
func facadeSubject(name string, algo fastlsa.Algorithm, caps backend.Capabilities) confSubject {
	return confSubject{name: name, caps: caps, planned: algo == fastlsa.AlgoAuto, run: func(c confCase, counters *stats.Counters) (fm.Result, string, error) {
		var route fastlsa.RouteInfo
		opt := c.options(counters)
		opt.Algorithm, opt.Route = algo, &route
		al, err := fastlsa.Align(c.a, c.b, opt)
		if err != nil {
			return fm.Result{}, route.Backend, err
		}
		return fm.Result{Score: al.Score, Path: al.Path}, route.Backend, nil
	}}
}

// parallelWorkers is the worker count of the core/parallel subject.
const parallelWorkers = 8

// confSubjects lists every aligner of the global/ends-free harness.
func confSubjects(t testing.TB) []confSubject {
	var out []confSubject
	for _, info := range backend.All() {
		algo, err := fastlsa.ParseAlgorithm(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, facadeSubject(info.Name, algo, info.Impl.Caps()))
	}
	out = append(out,
		facadeSubject("auto", fastlsa.AlgoAuto, backend.Capabilities{EndsFree: true, AffineGaps: true}),
		confSubject{name: "score", caps: backend.Capabilities{EndsFree: true, AffineGaps: true},
			run: func(c confCase, counters *stats.Counters) (fm.Result, string, error) {
				s, err := fastlsa.Score(c.a, c.b, c.options(counters))
				return fm.Result{Score: s}, "score", err
			}},
		confSubject{name: "banded/0", planned: true, run: func(c confCase, counters *stats.Counters) (fm.Result, string, error) {
			return banded(c, counters, 0)
		}},
		confSubject{name: "banded/wide", maxArea: 1 << 18, run: func(c confCase, counters *stats.Counters) (fm.Result, string, error) {
			res, _, err := banded(c, counters, max(c.a.Len(), c.b.Len(), 1))
			return res, "fm-banded", err
		}},
		// The unidirectional kernel: BiWFA's base case, and E13's.
		confSubject{name: "wfa/unidirectional", caps: backend.Capabilities{AffineGaps: true, UniformScoresOnly: true}, maxArea: 1 << 20,
			run: func(c confCase, counters *stats.Counters) (fm.Result, string, error) {
				budget, err := caseBudget(c)
				if err != nil {
					return fm.Result{}, "", err
				}
				res, err := wfa.Align(c.a, c.b, c.sys.matrix, c.sys.gap, wfa.Options{Budget: budget, Counters: counters})
				return res, "wfa/unidirectional", err
			}},
		// Parallel FastLSA with the wavefront on every fill: the facade
		// cannot set ParallelFillCells, and small inputs never reach the
		// parallel fill without it. An unset K resolves to 2P = 16. The
		// budget must round-trip to zero.
		confSubject{name: "core/parallel", caps: backend.Capabilities{AffineGaps: true}, parallel: true,
			run: func(c confCase, counters *stats.Counters) (fm.Result, string, error) {
				budget, err := memory.NewBudget(generousBudget(c.a, c.b))
				if err != nil {
					return fm.Result{}, "", err
				}
				res, err := core.Align(c.a, c.b, c.sys.matrix, c.sys.gap, core.Options{
					K: c.k, BaseCells: c.base, Workers: parallelWorkers, Budget: budget, Counters: counters,
					ParallelFillCells: 1,
				})
				if err == nil && budget.Used() != 0 {
					err = fmt.Errorf("budget leak: %d entries still reserved", budget.Used())
				}
				return res, backend.NameFastLSA, err
			}},
	)
	return out
}

func banded(c confCase, counters *stats.Counters, band int) (fm.Result, string, error) {
	al, err := fastlsa.AlignBanded(c.a, c.b, c.options(counters), band)
	if err != nil {
		return fm.Result{}, "", err
	}
	return fm.Result{Score: al.Score, Path: al.Path}, backend.NameFastLSA, nil
}

func caseBudget(c confCase) (*memory.Budget, error) {
	if c.budget == 0 {
		return nil, nil
	}
	return memory.NewBudget(c.budget)
}

// generousBudget holds the three affine full-matrix planes of the pair, and
// the unidirectional WFA's retained wavefronts of a divergent one.
func generousBudget(a, b *seq.Sequence) int64 {
	return 3*int64(a.Len()+1)*int64(b.Len()+1) + 1<<22
}

// countsEveryCell reports whether the backend that served c must count at
// least m·n cells. Hirschberg's affine single-row base case (Myers-Miller)
// counts none, so a one-row affine problem is exempt.
func countsEveryCell(served string, c confCase) bool {
	if served == backend.NameHirschberg && c.a.Len() == 1 && !c.sys.gap.IsLinear() {
		return false
	}
	return dpBackends[served]
}

// sequentialBound is Theorem 2's recurrence (theory.SequentialCells) for a
// FastLSA run of c: the most cells the run may count, at the (k, BM) it
// resolves to. The block-based parallel fill computes the cells a
// sequential run at the same k does, so the bound holds on any worker
// count. An ends-free run first sweeps all m·n cells to locate its end node
// (core.AlignMode), then recurses over a rectangle no larger than m × n, so
// its bound is m·n plus the recurrence.
func sequentialBound(t *testing.T, s confSubject, c confCase) int64 {
	t.Helper()
	workers := c.workers
	if s.parallel {
		workers = parallelWorkers
	}
	k, bm := c.k, c.base
	if s.planned {
		opt, err := core.PlanOptions(c.a.Len(), c.b.Len(), c.budget, workers, !c.sys.gap.IsLinear(), c.k, c.base)
		if err != nil {
			t.Fatalf("%s: %v: plan: %v", s.name, c, err)
		}
		k, bm = opt.K, opt.BaseCells
	}
	if k == 0 {
		// An unset K resolves to max(DefaultK, 2P) when that grid fits the
		// budget. Here it always fits: 2P exceeds DefaultK only on
		// core/parallel, which runs under generousBudget.
		k = max(core.DefaultK, 2*workers)
	}
	if bm == 0 {
		bm = core.DefaultBaseCells
	}
	bound, err := theory.SequentialCells(c.a.Len(), c.b.Len(), k, bm)
	if err != nil {
		t.Fatalf("%s: %v: %v", s.name, c, err)
	}
	if !c.mode.IsGlobal() {
		bound += int64(c.a.Len()) * int64(c.b.Len())
	}
	return bound
}

// checkCase runs every subject that serves c against the full-matrix
// oracle.
func checkCase(t *testing.T, subjects []confSubject, c confCase) {
	t.Helper()
	want, err := fm.AlignMode(c.a, c.b, c.sys.matrix, c.sys.gap, c.mode, nil, nil)
	if err != nil {
		t.Fatalf("%v: oracle: %v", c, err)
	}
	mn := int64(c.a.Len()) * int64(c.b.Len())
	for _, s := range subjects {
		if !s.serves(c) {
			continue
		}
		var counters stats.Counters
		got, served, err := s.run(c, &counters)
		if err != nil {
			t.Errorf("%s: %v: %v", s.name, c, err)
			continue
		}
		if got.Score != want.Score {
			t.Errorf("%s (served by %s): %v: score %d, full matrix %d", s.name, served, c, got.Score, want.Score)
			continue
		}
		if countsEveryCell(served, c) && counters.Cells.Load() < mn {
			t.Errorf("%s (served by %s): %v: %d cells counted, below m·n = %d", s.name, served, c, counters.Cells.Load(), mn)
		}
		if served == backend.NameFullMatrix {
			// The full matrix computes every cell once on any worker
			// count, and a parallel global run of at least the
			// parallel-fill area fills it in wavefront tiles.
			if counters.Cells.Load() != mn {
				t.Errorf("%s: %v: %d cells counted, want m·n = %d", s.name, c, counters.Cells.Load(), mn)
			}
			if c.workers > 1 && c.mode.IsGlobal() && mn >= core.DefaultParallelFillCells && counters.Snapshot()[stats.FillTiles] == 0 {
				t.Errorf("%s: %v: parallel run filled no wavefront tiles", s.name, c)
			}
		}
		if served == backend.NameFastLSA {
			if bound := sequentialBound(t, s, c); counters.Cells.Load() > bound {
				t.Errorf("%s: %v: %d cells counted, above Theorem 2's recurrence %d", s.name, c, counters.Cells.Load(), bound)
			}
		}
		if strings.HasPrefix(served, backend.NameWFA) && mn > 0 && !bytes.Equal(c.a.Residues, c.b.Residues) && counters.Cells.Load() == 0 {
			t.Errorf("%s: %v: no wavefront cells counted", s.name, c)
		}
		if served == "score" {
			continue
		}
		if err := got.Path.Validate(c.a.Len(), c.b.Len()); err != nil {
			t.Errorf("%s (served by %s): %v: %v", s.name, served, c, err)
			continue
		}
		if r := align.ScorePathMode(c.a, c.b, got.Path, c.sys.matrix, c.sys.gap, c.mode); r != got.Score {
			t.Errorf("%s (served by %s): %v: path rescores to %d, reported %d", s.name, served, c, r, got.Score)
		}
		if identicalPaths[served] && !got.Path.Equal(want.Path) {
			t.Errorf("%s (served by %s): %v: path differs from FM's:\n got  %s\n want %s", s.name, served, c, got.Path, want.Path)
		}
	}
}

// checkLocal runs the local-alignment entry points against full-matrix
// Smith-Waterman: the same score and end cell, and a path over the aligned
// substrings that rescores to the score.
func checkLocal(t *testing.T, c confCase) {
	t.Helper()
	want, err := fm.AlignLocal(c.a, c.b, c.sys.matrix, c.sys.gap, nil, nil)
	if err != nil {
		t.Fatalf("%v: local oracle: %v", c, err)
	}
	for _, algo := range []fastlsa.Algorithm{fastlsa.AlgoAuto, fastlsa.AlgoFullMatrix} {
		opt := c.options(nil)
		opt.Algorithm = algo
		got, err := fastlsa.AlignLocal(c.a, c.b, opt)
		if err != nil {
			t.Errorf("local/%v: %v: %v", algo, c, err)
			continue
		}
		if got.Score != want.Score {
			t.Errorf("local/%v: %v: score %d, Smith-Waterman %d", algo, c, got.Score, want.Score)
			continue
		}
		if got.Score == 0 {
			continue
		}
		if got.EndA != want.EndA || got.EndB != want.EndB {
			t.Errorf("local/%v: %v: end (%d,%d), Smith-Waterman (%d,%d)", algo, c, got.EndA, got.EndB, want.EndA, want.EndB)
		}
		subA, subB := c.a.Slice(got.StartA, got.EndA), c.b.Slice(got.StartB, got.EndB)
		if msg := testutil.CheckAlignment(subA, subB, got.Path, got.Score, c.sys.matrix, c.sys.gap); msg != "" {
			t.Errorf("local/%v: %v: %s", algo, c, msg)
		}
	}
}

// Scoring systems, per alphabet: a uniform matrix (WFA-compatible) and a
// non-uniform one, each under linear, affine and Open = 0 affine gaps.
func confSystems(alpha *seq.Alphabet, seed int64) []confSystem {
	uniform, err := scoring.Uniform(alpha, 5, -4)
	if err != nil {
		panic(err)
	}
	other := testutil.RandomMatrix(alpha, seed)
	if alpha == seq.Protein && seed%2 == 0 {
		other = scoring.BLOSUM62
	}
	var out []confSystem
	for _, m := range []*scoring.Matrix{uniform, other} {
		for _, g := range []scoring.Gap{scoring.Linear(-3), scoring.Affine(-8, -1), scoring.Affine(0, -2)} {
			out = append(out, confSystem{
				name:  fmt.Sprintf("%s/%s/%d,%d", alpha.Name, m.Name, g.Open, g.Extend),
				alpha: alpha, matrix: m, gap: g,
			})
		}
	}
	return out
}

var (
	dnaLinear   = confSystem{"dna/linear", seq.DNA, scoring.DNASimple, scoring.Linear(-4)}
	dnaAffine   = confSystem{"dna/affine", seq.DNA, scoring.DNASimple, scoring.Affine(-6, -2)}
	dnaStrict   = confSystem{"dna-strict/linear", seq.DNA, scoring.DNAStrict, scoring.Linear(-1)}
	dnaStrictG2 = confSystem{"dna-strict/linear-2", seq.DNA, scoring.DNAStrict, scoring.Linear(-2)}
	modes       = []align.Mode{align.Global, align.Overlap, align.FitBInA, align.FitAInB, {FreeStartA: true, FreeEndB: true}}
)

// fastlsaParams are the FastLSA (K, BaseCells) settings the harness sweeps:
// 0 selects the default.
var fastlsaParams = [][2]int{
	{2, core.MinBaseCells}, {3, core.MinBaseCells}, {8, core.MinBaseCells},
	{2, 0}, {3, 0}, {0, 0},
}

func mutationModel(d float64) seq.MutationModel {
	return seq.MutationModel{SubstitutionRate: d, InsertionRate: d / 10, DeletionRate: d / 10, MaxIndelRun: 4, IndelExtend: 0.5}
}

func mustPair(t testing.TB, n int, d float64, seed int64) (*seq.Sequence, *seq.Sequence) {
	a, b, err := seq.HomologousPair(n, seq.DNA, mutationModel(d), seed)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func dnaSeq(id, s string) *seq.Sequence { return seq.MustNew(id, s, seq.DNA) }

func concat(id string, parts ...*seq.Sequence) *seq.Sequence {
	var res []byte
	for _, p := range parts {
		res = append(res, p.Residues...)
	}
	return &seq.Sequence{ID: id, Alphabet: parts[0].Alphabet, Residues: res}
}

// confCases builds the case table.
func confCases(t testing.TB) []confCase {
	var cases []confCase
	add := func(c confCase) { cases = append(cases, c) }

	// Random pairs over every alphabet and scoring system, in every mode,
	// sweeping the FastLSA parameters, workers and budgets.
	i := 0
	for _, alpha := range []*seq.Alphabet{seq.DNA, seq.DNAIUPAC, seq.Protein} {
		for seed := int64(0); seed < 4; seed++ {
			for _, sys := range confSystems(alpha, seed) {
				for _, md := range modes {
					a, b := testutil.RandomPair(int(seed*17+int64(i))%90+1, int(seed*31+int64(2*i))%90+1, alpha, seed+int64(100*i))
					p := fastlsaParams[i%len(fastlsaParams)]
					c := confCase{name: "random", a: a, b: b, sys: sys, mode: md, k: p[0], base: p[1], workers: 1 + 3*(i/len(fastlsaParams)%2)}
					if i%3 == 0 {
						c.budget = generousBudget(a, b)
					}
					add(c)
					i++
				}
			}
		}
	}

	// Degenerate inputs: empty, 1-residue, identical, disjoint,
	// homopolymer, tandem repeat, m≫n strips and length skew.
	empty := dnaSeq("e", "")
	rep := func(s string, n int) string { return strings.Repeat(s, n) }
	degenerate := []struct {
		name string
		a, b *seq.Sequence
	}{
		{"empty", empty, empty},
		{"empty-a", empty, seq.Random("b", 9, seq.DNA, 11)},
		{"empty-b", seq.Random("a", 9, seq.DNA, 11), empty},
		{"one-residue", dnaSeq("a", "A"), dnaSeq("b", "T")},
		{"identical", seq.Random("s", 500, seq.DNA, 43), seq.Random("s", 500, seq.DNA, 43)},
		{"disjoint", dnaSeq("a", rep("A", 300)), dnaSeq("b", rep("T", 300))},
		{"homopolymer", dnaSeq("a", rep("A", 200)), dnaSeq("b", rep("A", 150))},
		{"tandem-repeat", dnaSeq("a", rep("ACG", 60)), dnaSeq("b", "T"+rep("ACG", 55))},
		{"strip-1x300", seq.Random("a", 1, seq.DNA, 11), seq.Random("b", 300, seq.DNA, 12)},
		{"strip-300x1", seq.Random("a", 300, seq.DNA, 11), seq.Random("b", 1, seq.DNA, 12)},
		{"strip-2x500", seq.Random("a", 2, seq.DNA, 11), seq.Random("b", 500, seq.DNA, 12)},
		{"strip-500x2", seq.Random("a", 500, seq.DNA, 11), seq.Random("b", 2, seq.DNA, 12)},
		{"skew", dnaSeq("a", "ACGT"), dnaSeq("b", rep("ACGT", 4))},
		{"skew", dnaSeq("a", rep("ACGT", 4)), dnaSeq("b", "ACG")},
		{"skew", dnaSeq("a", "A"), dnaSeq("b", "TTTT")},
		{"skew", dnaSeq("a", rep("AC", 4)), dnaSeq("b", "ACAC")},
		{"skew", dnaSeq("a", "AAAA"), dnaSeq("b", "AAAA"+rep("C", 36)+"AAAA")},
	}
	for j, d := range degenerate {
		for _, sys := range []confSystem{dnaStrictG2, dnaAffine} {
			for _, md := range []align.Mode{align.Global, align.Overlap} {
				add(confCase{name: d.name, a: d.a, b: d.b, sys: sys, mode: md, k: 4, base: core.MinBaseCells, workers: 1 + 3*(j%2)})
			}
		}
	}

	// The E13 divergence ladder at n = 220.
	for _, sys := range []confSystem{dnaLinear, dnaAffine, dnaStrict} {
		for j, d := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5} {
			a, b := mustPair(t, 220, d, int64(j+1))
			add(confCase{name: fmt.Sprintf("ladder-%.2f", d), a: a, b: b, sys: sys, workers: 1})
		}
	}

	// Long low-divergence pairs: enough optimal penalty for BiWFA to split
	// above its base-case cutoff, and, at k = 2 with the smallest base
	// buffer, FastLSA's deepest recursion.
	for j, d := range []float64{0.01, 0.05} {
		a, b := mustPair(t, 2000, d, int64(j+1))
		c := confCase{name: fmt.Sprintf("long-%.2f", d), a: a, b: b, sys: dnaLinear, workers: 1}
		if j == 0 {
			c.k, c.base, c.budget = 2, core.MinBaseCells, generousBudget(a, b)
		}
		add(c)
	}

	// The parallel full matrix under affine gaps, above the parallel-fill
	// area.
	{
		a, b := mustPair(t, 300, 0.05, 3)
		add(confCase{name: "fm-parallel", a: a, b: b, sys: dnaAffine, workers: 2})
	}

	// Shifted repeats (a = R1+S, b = S+R2): the optimal path leaves every
	// narrow band around the main diagonal.
	for seed := int64(0); seed < 24; seed++ {
		alpha, m := seq.DNA, scoring.DNASimple
		if seed%3 == 0 {
			alpha, m = seq.Protein, scoring.BLOSUM62
		}
		r1 := seq.Random("r1", int(seed%23)+1, alpha, seed)
		s := seq.Random("s", 20+int(seed*13%90), alpha, seed+1000)
		r2 := seq.Random("r2", int(seed*7%29)+1, alpha, seed+2000)
		g := scoring.Linear(-1 - int(seed%8))
		add(confCase{
			name: "shifted-repeat", a: concat("a", r1, s), b: concat("b", s, r2),
			sys: confSystem{fmt.Sprintf("%s/%s/%d", alpha.Name, m.Name, g.Extend), alpha, m, g},
			k:   2 + int(seed%7), base: core.MinBaseCells, workers: 1,
		})
	}
	return cases
}

// TestConformance is the harness: every case against every subject that
// serves it, plus the local-alignment entry points on every global case.
func TestConformance(t *testing.T) {
	subjects := confSubjects(t)
	for _, c := range confCases(t) {
		checkCase(t, subjects, c)
		if c.mode.IsGlobal() && c.a.Len()*c.b.Len() <= 1<<16 {
			checkLocal(t, c)
		}
	}
}

// errClass is the classification of an entry point's error.
type errClass string

const (
	errNone     errClass = "ok"
	errInvalid  errClass = "ErrInvalidInput"
	errExceeded errClass = "ErrBudgetExceeded"
	errTooSmall errClass = "ErrBudgetTooSmall"
	errCanceled errClass = "context.Canceled"
	errOther    errClass = "unclassified"
)

func classify(err error) errClass {
	switch {
	case err == nil:
		return errNone
	case errors.Is(err, fastlsa.ErrInvalidInput):
		return errInvalid
	case errors.Is(err, fastlsa.ErrBudgetTooSmall):
		return errTooSmall
	case errors.Is(err, fastlsa.ErrBudgetExceeded):
		return errExceeded
	case errors.Is(err, context.Canceled):
		return errCanceled
	}
	return errOther
}

// errSubjects are the entry points TestConformanceErrors asks, in the
// column order of its table: fastlsa.Align under AlgoAuto and under each
// backend (fm also on four workers), Score, AlignLocal under AlgoAuto and
// AlgoFullMatrix, and AlignBanded with band 0.
var errSubjects = [...]string{"auto", "fastlsa", "fm", "fm/P4", "hirschberg", "compact", "wfa", "score", "local/auto", "local/fm", "banded/0"}

// TestConformanceErrors pins the error class every entry point returns for
// each kind of refused request. Every row names every subject.
func TestConformanceErrors(t *testing.T) {
	a, b := mustPair(t, 300, 0.3, 5)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	base := confCase{name: "errors", a: a, b: b, sys: dnaLinear, workers: 1}
	protein := confSystem{"protein/blosum62", seq.Protein, scoring.BLOSUM62, scoring.Linear(-4)}
	pa, pb := testutil.HomologousPair(300, seq.Protein, 5)
	const (
		ok       = errNone
		invalid  = errInvalid
		tooSmall = errTooSmall
	)

	rows := []struct {
		name string
		c    confCase
		opt  func(*fastlsa.Options)
		want [len(errSubjects)]errClass
	}{
		{"nil matrix", base, func(o *fastlsa.Options) { o.Matrix = nil }, [...]errClass{invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid}},
		{"positive gap", base, func(o *fastlsa.Options) { o.Gap = scoring.Linear(1) }, [...]errClass{invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid}},
		{"negative budget", base, func(o *fastlsa.Options) { o.MemoryBudget = -1 }, [...]errClass{invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid}},
		{"K 1", base, func(o *fastlsa.Options) { o.K = 1 }, [...]errClass{invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid}},
		{"K -3", base, func(o *fastlsa.Options) { o.K = -3 }, [...]errClass{invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid}},
		{"BaseCells 3", base, func(o *fastlsa.Options) { o.BaseCells = 3 }, [...]errClass{invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid}},
		{"negative workers", base, func(o *fastlsa.Options) { o.Workers = -1 }, [...]errClass{invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid, invalid}},
		{"budget too small", base, func(o *fastlsa.Options) { o.MemoryBudget = 64 }, [...]errClass{tooSmall, tooSmall, tooSmall, tooSmall, tooSmall, tooSmall, errExceeded, tooSmall, tooSmall, tooSmall, tooSmall}},
		{"pre-cancelled context", base, func(o *fastlsa.Options) { o.Context = cancelled }, [...]errClass{errCanceled, errCanceled, errCanceled, errCanceled, errCanceled, errCanceled, errCanceled, errCanceled, errCanceled, errCanceled, errCanceled}},
		{"ends-free mode", base, func(o *fastlsa.Options) { o.Mode = align.Overlap }, [...]errClass{ok, ok, ok, ok, invalid, invalid, invalid, ok, ok, ok, invalid}},
		{"affine gap", base, func(o *fastlsa.Options) { o.Gap = scoring.Affine(-6, -2) }, [...]errClass{ok, ok, ok, ok, ok, invalid, ok, ok, ok, ok, invalid}},
		{"non-uniform matrix", confCase{name: "errors", a: pa, b: pb, sys: protein, workers: 1}, nil, [...]errClass{ok, ok, ok, ok, ok, ok, invalid, ok, ok, ok, ok}},
		// Align and local/fm subjects set their own Algorithm; Score runs
		// its sweep whatever Algorithm names.
		{"algorithm hirschberg", base, func(o *fastlsa.Options) { o.Algorithm = fastlsa.AlgoHirschberg }, [...]errClass{ok, ok, ok, ok, ok, ok, ok, ok, invalid, ok, invalid}},
	}
	for _, row := range rows {
		for i, subject := range errSubjects {
			want := row.want[i]
			opt := row.c.options(nil)
			if subject == "fm/P4" {
				opt.Workers = 4
			}
			if row.opt != nil {
				row.opt(&opt)
			}
			var err error
			switch subject {
			case "score":
				_, err = fastlsa.Score(row.c.a, row.c.b, opt)
			case "local/auto", "local/fm":
				if subject == "local/fm" {
					opt.Algorithm = fastlsa.AlgoFullMatrix
				}
				_, err = fastlsa.AlignLocal(row.c.a, row.c.b, opt)
			case "banded/0":
				_, err = fastlsa.AlignBanded(row.c.a, row.c.b, opt, 0)
			case "fm/P4":
				opt.Algorithm = fastlsa.AlgoFullMatrix
				_, err = fastlsa.Align(row.c.a, row.c.b, opt)
			default:
				algo, perr := fastlsa.ParseAlgorithm(subject)
				if perr != nil {
					t.Fatal(perr)
				}
				opt.Algorithm = algo
				_, err = fastlsa.Align(row.c.a, row.c.b, opt)
			}
			if got := classify(err); got != want {
				t.Errorf("%s / %s: %s (%v), want %s", row.name, subject, got, err, want)
			}
		}
	}

	// The direct entry points take their budget and cancellation as
	// arguments.
	tiny, err := memory.NewBudget(64)
	if err != nil {
		t.Fatal(err)
	}
	cc := (*stats.Counters)(nil).Derive(cancelled)
	for _, tc := range []struct {
		name string
		err  error
		want errClass
	}{
		{"wfa/unidirectional budget", func() error {
			_, err := wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Budget: tiny})
			return err
		}(), errExceeded},
		{"wfa/unidirectional cancelled", func() error {
			_, err := wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Counters: cc})
			return err
		}(), errCanceled},
		{"core/parallel budget", func() error {
			_, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{Workers: 4, Budget: tiny, ParallelFillCells: 1})
			return err
		}(), errTooSmall},
		{"core/parallel cancelled", func() error {
			_, err := core.Align(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{Workers: 4, Counters: cc, ParallelFillCells: 1})
			return err
		}(), errCanceled},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("%s: %s (%v), want %s", tc.name, got, tc.err, tc.want)
		}
	}
	if tiny.Used() != 0 {
		t.Errorf("budget leak after refused runs: %d", tiny.Used())
	}
}

// FuzzBackends runs the harness on fuzzer-chosen DNA pairs: two free
// strings, or a string and a mutated copy of it when rate is in (0, 1]
// (the E13 divergence ladder seeds that shape), under linear and affine
// gaps, on one and two workers, with fuzzer-chosen FastLSA parameters.
func FuzzBackends(f *testing.F) {
	f.Add("ACGTACGT", "ACTTACG", 0.0, int64(0), uint8(2), uint8(4))
	f.Add("A", "TTTTTTTT", 0.0, int64(0), uint8(3), uint8(0))
	f.Add("", "ACGT", 0.0, int64(0), uint8(8), uint8(16))
	for _, d := range []float64{0.001, 0.01, 0.05, 0.10, 0.20, 0.30} {
		f.Add("ACGTACGTACGTACGTACGTTGCAACGTACGTGGTACCA", "", d, int64(1000*d)+13, uint8(6), uint8(0))
	}
	f.Add("", "", 0.5, int64(1), uint8(6), uint8(0))
	f.Add("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", "", 0.9, int64(2), uint8(6), uint8(0))
	subjects := confSubjects(f)
	f.Fuzz(func(t *testing.T, sa, sb string, rate float64, seed int64, k8, bm8 uint8) {
		const maxLen = 300
		a := dnaSeq("a", fuzzDNA(sa, maxLen))
		b := dnaSeq("b", fuzzDNA(sb, maxLen))
		if rate > 0 && rate <= 1 {
			if mb, err := mutationModel(rate).Mutate("b", a, seed); err == nil && mb.Len() <= 2*maxLen {
				b = mb
			}
		}
		k := int(k8%15) + 2
		base := core.MinBaseCells + int(bm8)*8
		for _, sys := range []confSystem{dnaLinear, dnaAffine} {
			for _, md := range []align.Mode{align.Global, align.Overlap} {
				for _, p := range []int{1, 2} {
					checkCase(t, subjects, confCase{name: "fuzz", a: a, b: b, sys: sys, mode: md, k: k, base: base, workers: p})
				}
			}
		}
	})
}

// fuzzDNA maps arbitrary fuzz bytes into the DNA alphabet.
func fuzzDNA(s string, n int) string {
	out := make([]byte, min(len(s), n))
	for i := range out {
		out[i] = "ACGT"[s[i]%4]
	}
	return string(out)
}
