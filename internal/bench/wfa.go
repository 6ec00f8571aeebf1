package bench

import (
	"errors"
	"fmt"
	"io"

	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/index"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// wfaDivergences is the divergence ladder E13 sweeps: the WFA kernel's
// runtime is O((m+n)·s) in the optimal penalty s, so cost climbs with
// divergence while FastLSA's O(mn) cost stays flat. The ladder brackets the
// crossover from both sides.
var wfaDivergences = []float64{0.001, 0.01, 0.05, 0.10, 0.20, 0.30}

// wfaBudget caps the entries one E13 WFA run may retain (128 MiB): the
// kernel keeps every wavefront, O(s²) for penalty s, so top rungs at large n
// would otherwise grow to gigabytes.
var wfaBudget = int64(1) << 24

// ExperimentWFACrossover (E13) measures the FastLSA-vs-WFA crossover that
// motivates divergence-adaptive routing (docs/BACKENDS.md): identical
// DNA pairs of length n are mutated at increasing rates and aligned by both
// engines under the same unit-cost-compatible scoring (DNA +5/-4, linear
// -4). Each row reports the router's q-gram identity estimate and verdict
// alongside the measured wall-clock of both engines, so the routing
// threshold can be judged against the actual crossover point.
func ExperimentWFACrossover(w io.Writer, n int) error {
	if n == 0 {
		n = 3000
	}
	matrix := scoring.DNASimple
	gap := scoring.Linear(-4)
	t := NewTable(fmt.Sprintf("E13: FastLSA vs WFA by divergence (dna n=%d, +5/-4, gap -4)", n),
		"divergence", "identity-est", "route", "fastlsa-ms", "wfa-ms", "speedup", "wfa-cells", "same-score")
	for _, d := range wfaDivergences {
		model := seq.MutationModel{
			SubstitutionRate: d,
			InsertionRate:    d / 10,
			DeletionRate:     d / 10,
			MaxIndelRun:      4,
			IndelExtend:      0.5,
		}
		a, b, err := seq.HomologousPair(n, seq.DNA, model, int64(1000*d)+13)
		if err != nil {
			return err
		}
		identity, ok := index.EstimateIdentity(a, b, 0)
		identityCell := "n/a"
		if ok {
			identityCell = fmt.Sprintf("%.3f", identity)
		}
		route := backend.Decide(a, b, matrix, gap, align.Mode{}, false)

		mf := Run(a, b, matrix, Config{Engine: EngineFastLSA, Gap: gap})
		if mf.Err != nil {
			return mf.Err
		}
		mw := Run(a, b, matrix, Config{Engine: EngineWFA, Gap: gap, Budget: wfaBudget})
		if errors.Is(mw.Err, memory.ErrExceeded) {
			t.AddRow(d, identityCell, route.Backend, float64(mf.Duration.Microseconds())/1000, "over-budget", "n/a", "n/a", "n/a")
			continue
		}
		if mw.Err != nil {
			return mw.Err
		}
		speedup := float64(mf.Duration) / float64(mw.Duration)
		t.AddRow(d, identityCell, route.Backend,
			float64(mf.Duration.Microseconds())/1000,
			float64(mw.Duration.Microseconds())/1000,
			speedup, mw.Stats[stats.Cells], mf.Score == mw.Score)
	}
	t.AddNote("wfa-cells: wavefront entries expanded; FastLSA computes ~m*n cells at every divergence")
	t.AddNote("route: AlgoAuto's verdict at threshold %.2f — wfa while the estimate stays above it", backend.RouteIdentityThreshold)
	t.AddNote("speedup: fastlsa-ms / wfa-ms (>1 means WFA wins)")
	t.AddNote("over-budget: WFA would retain more than %d entries; the run stopped there", wfaBudget)
	return t.Fprint(w)
}

// biwfaDivergences is the low-divergence band E15 sweeps — the regime the
// router actually sends to the WFA backend, where the unidirectional
// kernel's retained O(s²) history is largest relative to the work done.
var biwfaDivergences = []float64{0.01, 0.02, 0.05}

// ExperimentBiWFA (E15) measures what the bidirectional mode buys: both WFA
// kernels aligned under per-run budgets whose high-water marks expose peak
// retained entries. Unidirectional WFA keeps every wavefront for the
// backtrace — O(s²) entries for optimal penalty s — while BiWFA keeps only a
// bounded window per direction, O(s) — so the peak ratio should grow with
// divergence and clear 10x across the band. FastLSA re-aligns each pair as
// the score oracle, and its time against BiWFA's (the mode the wfa backend
// serves) next to the identity estimate locates the routing crossover.
func ExperimentBiWFA(w io.Writer, n int) error {
	if n == 0 {
		n = 3000
	}
	matrix := scoring.DNASimple
	gap := scoring.Linear(-4)
	t := NewTable(fmt.Sprintf("E15: WFA vs BiWFA peak memory by divergence (dna n=%d, +5/-4, gap -4)", n),
		"divergence", "identity-est", "route", "fastlsa-ms", "wfa-ms", "biwfa-ms",
		"wfa-peak", "biwfa-peak", "mem-ratio", "same-score")
	// Roomy enough that no run degrades or falls back: the comparison is
	// about high-water marks, not budget pressure.
	const roomy = int64(1) << 32
	for _, d := range biwfaDivergences {
		model := seq.MutationModel{
			SubstitutionRate: d,
			InsertionRate:    d / 10,
			DeletionRate:     d / 10,
			MaxIndelRun:      4,
			IndelExtend:      0.5,
		}
		a, b, err := seq.HomologousPair(n, seq.DNA, model, int64(1000*d)+13)
		if err != nil {
			return err
		}
		route := backend.Decide(a, b, matrix, gap, align.Mode{}, false)
		mf := Run(a, b, matrix, Config{Engine: EngineFastLSA, Gap: gap})
		if mf.Err != nil {
			return mf.Err
		}
		mw := Run(a, b, matrix, Config{Engine: EngineWFA, Gap: gap, Budget: roomy})
		if mw.Err != nil {
			return mw.Err
		}
		mb := Run(a, b, matrix, Config{Engine: EngineBiWFA, Gap: gap, Budget: roomy})
		if mb.Err != nil {
			return mb.Err
		}
		ratio := 0.0
		if mb.PeakMem > 0 {
			ratio = float64(mw.PeakMem) / float64(mb.PeakMem)
		}
		same := mf.Score == mw.Score && mw.Score == mb.Score
		t.AddRow(d, fmt.Sprintf("%.3f", route.Identity), route.Backend,
			float64(mf.Duration.Microseconds())/1000,
			float64(mw.Duration.Microseconds())/1000,
			float64(mb.Duration.Microseconds())/1000,
			mw.PeakMem, mb.PeakMem, ratio, same)
	}
	t.AddNote("peaks: budget high-water marks in 8-byte entries (reversed-residue scratch excluded, as in hirschberg)")
	t.AddNote("mem-ratio: wfa-peak / biwfa-peak — the linear-space win the wfa backend's LinearSpace capability claims")
	t.AddNote("same-score: both kernels match the FastLSA score exactly")
	t.AddNote("route: AlgoAuto's verdict at threshold %.2f; it should pick wfa exactly where biwfa-ms < fastlsa-ms", backend.RouteIdentityThreshold)
	return t.Fprint(w)
}
