package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"fastlsa/internal/align"
	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/hirschberg"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/theory"
)

// This file implements the paper-reproduction experiments E1-E12 (see
// DESIGN.md §3 for the experiment index). Each function generates its
// workloads, runs the measured configurations, and prints a table whose
// rows correspond to the rows/series of the paper's table or figure.

// ExperimentExample (E1) reproduces Table 1 / Figure 1: the worked example
// alignment with the modified Dayhoff excerpt and gap -10.
func ExperimentExample(w io.Writer) error {
	a, err := seq.New("TDVLKAD", "TDVLKAD", scoring.Table1Alphabet)
	if err != nil {
		return err
	}
	b, err := seq.New("TLDKLLKD", "TLDKLLKD", scoring.Table1Alphabet)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== E1: Figure 1 worked example (Table 1 scores, gap -10) ==")
	fmt.Fprint(w, scoring.Table1.String())
	res, err := core.Align(a, b, scoring.Table1, scoring.PaperGap, core.Options{Workers: 1})
	if err != nil {
		return err
	}
	al, err := align.New(a, b, res.Path, res.Score)
	if err != nil {
		return err
	}
	if err := al.Fprint(w, align.FormatOptions{}); err != nil {
		return err
	}
	fmt.Fprintf(w, "paper optimal score: 82; measured: %d\n\n", res.Score)
	return nil
}

// ExperimentOpCounts (E2) regenerates the analytical comparison table:
// cells computed and peak budgeted space per algorithm, with the paper's
// predicted factors alongside.
func ExperimentOpCounts(w io.Writer, sizes []int, ks []int) error {
	if len(sizes) == 0 {
		sizes = []int{1000, 2000, 4000}
	}
	if len(ks) == 0 {
		ks = []int{2, 4, 8, 16}
	}
	t := NewTable("E2: operation counts (recomputation factor = cells / m*n)",
		"size", "engine", "cells", "factor", "predicted")
	for _, n := range sizes {
		wl := Workload{Name: fmt.Sprintf("dna-%d", n), Length: n, Alphabet: seq.DNA, Seed: int64(n)}
		a, b, err := wl.Generate()
		if err != nil {
			return err
		}
		area := float64(a.Len()) * float64(b.Len())

		m := Run(a, b, wl.Matrix(), Config{Engine: EngineFM})
		if m.Err != nil {
			return m.Err
		}
		t.AddRow(n, "fm", m.Stats[stats.Cells], float64(m.Stats[stats.Cells])/area, 1.0)

		m = Run(a, b, wl.Matrix(), Config{Engine: EngineHirschberg})
		if m.Err != nil {
			return m.Err
		}
		t.AddRow(n, "hirschberg", m.Stats[stats.Cells], float64(m.Stats[stats.Cells])/area, 2.0)

		for _, k := range ks {
			m = Run(a, b, wl.Matrix(), Config{Engine: EngineFastLSA, K: k, BaseCells: 256})
			if m.Err != nil {
				return m.Err
			}
			pred := float64(k*k) / float64((k-1)*(k-1))
			t.AddRow(n, fmt.Sprintf("fastlsa(k=%d)", k), m.Stats[stats.Cells], float64(m.Stats[stats.Cells])/area, pred)
		}
	}
	t.AddNote("predicted: FM 1.0; Hirschberg ~2.0; FastLSA <= (k/(k-1))^2 (Theorem 2)")
	return t.Fprint(w)
}

// ExperimentTable3 (E3) prints the benchmark workload ladder standing in
// for the paper's Table 3 and verifies each pair generates.
func ExperimentTable3(w io.Writer, large bool) error {
	t := NewTable("E3: benchmark problem suite (Table 3 equivalent)",
		"name", "alphabet", "lenA", "lenB", "identity%")
	for _, wl := range Table3Workloads(large) {
		a, b, err := wl.Generate()
		if err != nil {
			return err
		}
		// Identity estimate from a quick alignment on a prefix window (the
		// full pair is aligned by the other experiments).
		win := 800
		if a.Len() < win {
			win = a.Len()
		}
		winB := win
		if b.Len() < winB {
			winB = b.Len()
		}
		res, err := core.Align(a.Slice(0, win), b.Slice(0, winB), wl.Matrix(), scoring.Linear(-4), core.Options{Workers: 1})
		if err != nil {
			return err
		}
		al, err := align.New(a.Slice(0, win), b.Slice(0, winB), res.Path, res.Score)
		if err != nil {
			return err
		}
		t.AddRow(wl.Name, wl.Alphabet.Name, a.Len(), b.Len(), 100*al.Stats().Identity)
	}
	t.AddNote("synthetic homologous pairs (DESIGN.md §4): point-mutation/indel channel over seeded random references")
	return t.Fprint(w)
}

// ExperimentSeqTime (E4) regenerates the sequential time-vs-size figure:
// FM vs Hirschberg vs FastLSA wall-clock across the workload ladder.
func ExperimentSeqTime(w io.Writer, large bool) error {
	t := NewTable("E4: sequential wall-clock by algorithm (figure: time vs size)",
		"workload", "engine", "ms", "cells/s", "score")
	for _, wl := range Table3Workloads(large) {
		if wl.Length > 20000 && !large {
			continue
		}
		a, b, err := wl.Generate()
		if err != nil {
			return err
		}
		for _, cfg := range []Config{
			{Engine: EngineFM},
			{Engine: EngineHirschberg},
			{Engine: EngineFastLSA, K: 8, BaseCells: core.DefaultBaseCells},
		} {
			m := Run(a, b, wl.Matrix(), cfg)
			if m.Err != nil {
				return fmt.Errorf("%s/%s: %w", wl.Name, cfg.Engine, m.Err)
			}
			t.AddRow(wl.Name, string(cfg.Engine), m.Duration.Milliseconds(), m.CellsPerSecond(), m.Score)
		}
	}
	t.AddNote("paper shape: FastLSA >= Hirschberg at every size; within ~1.1-1.6x of FM while FM fits in memory")
	return t.Fprint(w)
}

// ExperimentKSweep (E5) regenerates the effect-of-k figure: time, cells and
// grid memory as k varies at a fixed problem size.
func ExperimentKSweep(w io.Writer, n int, ks []int) error {
	if n == 0 {
		n = 4000
	}
	if len(ks) == 0 {
		ks = []int{2, 3, 4, 6, 8, 12, 16, 24, 32}
	}
	wl := Workload{Name: "ksweep", Length: n, Alphabet: seq.DNA, Seed: 42}
	a, b, err := wl.Generate()
	if err != nil {
		return err
	}
	t := NewTable(fmt.Sprintf("E5: effect of k (m=n~%d, BM=16Ki)", n),
		"k", "ms", "cells", "factor", "bound", "peakGrid")
	area := float64(a.Len()) * float64(b.Len())
	for _, k := range ks {
		m := Run(a, b, wl.Matrix(), Config{
			Engine: EngineFastLSA, K: k, BaseCells: 16 * 1024,
			Budget: int64(a.Len()+b.Len())*int64(4*k+8) + 3*16*1024,
		})
		if m.Err != nil {
			return fmt.Errorf("k=%d: %w", k, m.Err)
		}
		bound := float64(k*k) / float64((k-1)*(k-1))
		t.AddRow(k, m.Duration.Milliseconds(), m.Stats[stats.Cells], float64(m.Stats[stats.Cells])/area, bound, m.PeakMem)
	}
	t.AddNote("cells factor must fall with k toward 1 while grid memory grows ~linearly in k")
	return t.Fprint(w)
}

// ExperimentMemSweep (E6) regenerates the memory-adaptivity figure: FastLSA
// under decreasing budgets RM, with the FM algorithm's feasibility noted.
func ExperimentMemSweep(w io.Writer, n int) error {
	if n == 0 {
		n = 4000
	}
	wl := Workload{Name: "memsweep", Length: n, Alphabet: seq.DNA, Seed: 43}
	a, b, err := wl.Generate()
	if err != nil {
		return err
	}
	full := int64(a.Len()+1) * int64(b.Len()+1)
	const par = 4 // worker count of the parallel series
	t := NewTable(fmt.Sprintf("E6: adapting to the memory budget RM (m=n~%d, full matrix = %d entries)", n, full),
		"budget", "pct-of-full", "fm", "fastlsa-ms", "peak", "cells-factor", "p4-ms")
	area := float64(a.Len()) * float64(b.Len())
	for _, frac := range []float64{1.2, 0.5, 0.1, 0.02, 0.005} {
		budget := int64(frac * float64(full))
		fmState := "ok"
		if mm := Run(a, b, wl.Matrix(), Config{Engine: EngineFM, Budget: budget}); mm.Err != nil {
			fmState = "REJECTED"
		}
		opt, err := core.SuggestOptions(a.Len(), b.Len(), budget, 1)
		if err != nil {
			t.AddRow(budget, fmt.Sprintf("%.1f%%", 100*frac), fmState, "-", "-", "below linear floor", "-")
			continue
		}
		m := Run(a, b, wl.Matrix(), Config{
			Engine: EngineFastLSA, K: opt.K, BaseCells: opt.BaseCells, Budget: budget,
		})
		if m.Err != nil {
			return fmt.Errorf("budget=%d: %w", budget, m.Err)
		}
		// Parallel series at the same budget: the wavefront fill writes into
		// the grid lines and needs nothing the sequential plan lacks.
		popt, perr := core.SuggestOptions(a.Len(), b.Len(), budget, par)
		parMS := "-"
		if perr == nil {
			pm := Run(a, b, wl.Matrix(), Config{
				Engine: EngineFastLSA, K: popt.K, BaseCells: popt.BaseCells, Budget: budget,
				Workers: par,
			})
			if pm.Err != nil {
				return fmt.Errorf("budget=%d P=%d: %w", budget, par, pm.Err)
			}
			if pm.Score != m.Score {
				return fmt.Errorf("budget=%d: parallel score %d != sequential %d", budget, pm.Score, m.Score)
			}
			parMS = fmt.Sprintf("%d", pm.Duration.Milliseconds())
		}
		t.AddRow(budget, fmt.Sprintf("%.1f%%", 100*frac), fmState,
			m.Duration.Milliseconds(), m.PeakMem, float64(m.Stats[stats.Cells])/area, parMS)
	}
	t.AddNote("paper shape: FM becomes infeasible below 100%% of the matrix; FastLSA degrades gracefully to linear space")
	t.AddNote("p4-ms = the P=4 run at the same budget; its score is checked equal to the sequential one")
	return t.Fprint(w)
}

// ExperimentSpeedup (E7) regenerates the parallel speedup figure: Parallel
// FastLSA vs workers P at several sizes, with parallel FM for reference.
func ExperimentSpeedup(w io.Writer, sizes []int, workers []int) error {
	if len(sizes) == 0 {
		sizes = []int{2000, 5000, 10000}
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	// One k for every P, so the speedup column measures parallelism alone:
	// the k an unset Options.K selects for the largest P.
	k := max(core.DefaultK, 2*slices.Max(workers))
	t := NewTable(fmt.Sprintf("E7: parallel speedup (k=%d; host GOMAXPROCS=%d; 'model' replays the tile schedule on P virtual CPUs)", k, runtime.GOMAXPROCS(0)),
		"size", "engine", "P", "ms", "speedup", "efficiency", "model-speedup")
	for _, n := range sizes {
		wl := Workload{Name: fmt.Sprintf("speedup-%d", n), Length: n, Alphabet: seq.DNA, Seed: int64(n) * 3}
		a, b, err := wl.Generate()
		if err != nil {
			return err
		}
		for _, engine := range []Engine{EngineFastLSA, EngineFMParallel} {
			var base float64
			for _, p := range workers {
				cfg := Config{Engine: engine, Workers: p, K: k, BaseCells: core.DefaultBaseCells}
				m := Run(a, b, wl.Matrix(), cfg)
				if m.Err != nil {
					return fmt.Errorf("n=%d %s P=%d: %w", n, engine, p, m.Err)
				}
				ms := float64(m.Duration.Microseconds()) / 1000
				if p == workers[0] {
					base = ms
				}
				sp := base / ms
				model := "-"
				if engine == EngineFastLSA {
					model = fmt.Sprintf("%.2f", ModelSpeedup(a.Len(), b.Len(), ModelConfig{
						K: k, BaseCells: core.DefaultBaseCells, Workers: p,
					}))
				}
				t.AddRow(n, string(engine), p, fmt.Sprintf("%.1f", ms),
					fmt.Sprintf("%.2f", sp), fmt.Sprintf("%.2f", sp/float64(p)*float64(workers[0])), model)
			}
		}
	}
	t.AddNote("paper shape: near-linear speedup for P <= 8; on hosts with fewer CPUs than P the measured column saturates while the model column shows the schedule-limited speedup")
	return t.Fprint(w)
}

// ExperimentEfficiency (E8) regenerates the efficiency-vs-size figure at a
// fixed worker count.
func ExperimentEfficiency(w io.Writer, p int, large bool) error {
	if p == 0 {
		p = 8
	}
	k := max(core.DefaultK, 2*p) // the k an unset Options.K selects at P
	t := NewTable(fmt.Sprintf("E8: parallel efficiency vs problem size (P=%d, k=%d)", p, k),
		"workload", "seq-ms", "par-ms", "speedup", "efficiency", "model-speedup", "model-eff")
	for _, wl := range Table3Workloads(large) {
		if wl.Alphabet != seq.DNA {
			continue
		}
		a, b, err := wl.Generate()
		if err != nil {
			return err
		}
		seqM := Run(a, b, wl.Matrix(), Config{Engine: EngineFastLSA, Workers: 1, K: k, BaseCells: core.DefaultBaseCells})
		if seqM.Err != nil {
			return seqM.Err
		}
		parM := Run(a, b, wl.Matrix(), Config{Engine: EngineFastLSA, Workers: p, K: k, BaseCells: core.DefaultBaseCells})
		if parM.Err != nil {
			return parM.Err
		}
		sp := float64(seqM.Duration) / float64(parM.Duration)
		model := ModelSpeedup(a.Len(), b.Len(), ModelConfig{K: k, BaseCells: core.DefaultBaseCells, Workers: p})
		t.AddRow(wl.Name, seqM.Duration.Milliseconds(), parM.Duration.Milliseconds(),
			fmt.Sprintf("%.2f", sp), fmt.Sprintf("%.2f", sp/float64(p)),
			fmt.Sprintf("%.2f", model), fmt.Sprintf("%.2f", model/float64(p)))
	}
	t.AddNote("paper shape: efficiency increases with sequence length (visible in the model columns regardless of host CPU count)")
	return t.Fprint(w)
}

// ExperimentTileSweep (E9) regenerates the Figure 13 analysis: phase tile
// counts, recomputation and fill time across k at fixed P. The wavefront
// tiles of a Fill Cache are its k x k blocks, so R = C = k.
func ExperimentTileSweep(w io.Writer, n, p int) error {
	if n == 0 {
		n = 8000
	}
	if p == 0 {
		p = 8
	}
	wl := Workload{Name: "tilesweep", Length: n, Alphabet: seq.DNA, Seed: 44}
	a, b, err := wl.Generate()
	if err != nil {
		return err
	}
	area := float64(a.Len()) * float64(b.Len())
	t := NewTable(fmt.Sprintf("E9: tiling and the three wavefront phases (m=n~%d, P=%d)", n, p),
		"k", "RxC", "phase1", "phase2", "phase3", "tiles", "alpha-bound", "model-speedup", "cells-factor", "ms")
	for _, k := range []int{4, 6, 8, 12, 16, 32} {
		m := Run(a, b, wl.Matrix(), Config{
			Engine: EngineFastLSA, K: k, BaseCells: core.DefaultBaseCells, Workers: p,
		})
		if m.Err != nil {
			return fmt.Errorf("k=%d: %w", k, m.Err)
		}
		model := ModelSpeedup(a.Len(), b.Len(), ModelConfig{K: k, BaseCells: core.DefaultBaseCells, Workers: p})
		t.AddRow(k, fmt.Sprintf("%dx%d", k, k),
			m.Stats[stats.Phase1Tiles], m.Stats[stats.Phase2Tiles], m.Stats[stats.Phase3Tiles],
			m.Stats[stats.FillTiles], fmt.Sprintf("%.3f", TheoremAlpha(p, k, k)),
			fmt.Sprintf("%.2f", model), fmt.Sprintf("%.4f", float64(m.Stats[stats.Cells])/area),
			m.Duration.Milliseconds())
	}
	t.AddNote("alpha = (1 + (P^2-P)/(R*C))/P from Theorem 4; a larger k pushes alpha toward 1/P and cells-factor toward 1 (Theorem 2)")
	t.AddNote("phase and tile counts include the parallel base cases (2P x 2P tiles each)")
	t.AddNote("Figure 13's u=2, v=3 at k=6 (R x C = 12 x 18) is not square and has no R = C = k counterpart")
	return t.Fprint(w)
}

// ExperimentBounds (E11) checks the Appendix A theorems empirically and
// prints measured-vs-bound rows; it returns an error if any bound is
// violated.
func ExperimentBounds(w io.Writer) error {
	t := NewTable("E11: Theorem bounds (measured cells vs analytical bound)",
		"config", "cells", "bound", "ok")
	violated := false
	for _, tc := range []struct{ n, k, p int }{
		{1500, 2, 1}, {1500, 4, 1}, {1500, 8, 1},
		{1500, 4, 4}, {1500, 8, 8}, {3000, 8, 4},
	} {
		wl := Workload{Name: "bounds", Length: tc.n, Alphabet: seq.DNA, Seed: int64(tc.n + tc.k)}
		a, b, err := wl.Generate()
		if err != nil {
			return err
		}
		m := Run(a, b, wl.Matrix(), Config{Engine: EngineFastLSA, K: tc.k, BaseCells: 256, Workers: tc.p})
		if m.Err != nil {
			return m.Err
		}
		area := float64(a.Len()) * float64(b.Len())
		bound := area * float64(tc.k*tc.k) / float64((tc.k-1)*(tc.k-1)) * 1.10 // +10% base-case slack
		ok := float64(m.Stats[stats.Cells]) <= bound
		if !ok {
			violated = true
		}
		t.AddRow(fmt.Sprintf("n=%d k=%d P=%d", tc.n, tc.k, tc.p), m.Stats[stats.Cells], int64(bound), ok)
	}
	t.AddNote("bound: m*n*(k/(k-1))^2 (+10%% slack for clamped base cases), Theorem 2/4")
	if err := t.Fprint(w); err != nil {
		return err
	}
	if violated {
		return fmt.Errorf("bench: a theorem bound was violated (see table)")
	}
	return nil
}

// ExperimentVariants (E12, extension ablation) compares the full-matrix
// variants and accelerators this repository adds around the paper: the
// score-matrix FM, the traceback-bit compact FM (§2.1's "three bits per
// entry" remark), Hirschberg, and FastLSA — all
// on the same pair, with time, cells and peak budgeted memory.
func ExperimentVariants(w io.Writer, n int) error {
	if n == 0 {
		n = 3000
	}
	wl := Workload{Name: "variants", Length: n, Alphabet: seq.DNA, Seed: 45}
	a, b, err := wl.Generate()
	if err != nil {
		return err
	}
	gap := scoring.Linear(-4)
	full := int64(a.Len()+1) * int64(b.Len()+1)
	t := NewTable(fmt.Sprintf("E12: variant ablation (m=n~%d, full matrix = %d entries)", n, full),
		"variant", "ms", "cells", "peak-entries", "score")

	type variant struct {
		name string
		run  func(budget *memory.Budget, c *stats.Counters) (int64, error)
	}
	variants := []variant{
		{"fm (score matrix)", func(bg *memory.Budget, c *stats.Counters) (int64, error) {
			r, err := fm.Align(a, b, wl.Matrix(), gap, bg, c)
			return r.Score, err
		}},
		{"fm-compact (direction bits)", func(bg *memory.Budget, c *stats.Counters) (int64, error) {
			r, err := fm.AlignCompact(a, b, wl.Matrix(), gap, bg, c)
			return r.Score, err
		}},
		{"hirschberg", func(bg *memory.Budget, c *stats.Counters) (int64, error) {
			r, err := hirschberg.Align(a, b, wl.Matrix(), gap, hirschberg.Options{}, bg, c)
			return r.Score, err
		}},
		{"fastlsa (k=8)", func(bg *memory.Budget, c *stats.Counters) (int64, error) {
			r, err := core.Align(a, b, wl.Matrix(), gap, core.Options{K: 8, Budget: bg, Workers: 1, Counters: c})
			return r.Score, err
		}},
	}
	for _, v := range variants {
		budget, err := memory.NewBudget(4 * full)
		if err != nil {
			return err
		}
		var c stats.Counters
		start := time.Now()
		score, err := v.run(budget, &c)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		t.AddRow(v.name, time.Since(start).Milliseconds(), c.Cells.Load(), budget.Peak(), score)
	}
	t.AddNote("all variants must report the same score; memory spans quadratic (fm) to linear (hirschberg, fastlsa)")
	return t.Fprint(w)
}

// ExperimentTheory (Appendix A, executable) prints the exact recurrences of
// Theorems 2 and 4 next to their closed-form bounds and the schedule
// simulation — three routes to the same quantities.
func ExperimentTheory(w io.Writer) error {
	t := NewTable("Appendix A: recurrences vs closed forms vs simulation",
		"config", "seq-cells(rec)", "seq-bound", "WT(rec)", "WT-bound", "speedup(rec)", "speedup(sim)")
	for _, tc := range []struct{ n, k, p, u, v int }{
		{2000, 8, 1, 1, 1}, {2000, 8, 4, 1, 1}, {2000, 16, 8, 1, 1},
		{8000, 6, 8, 2, 3}, // the Figure 13 configuration
		{8000, 32, 16, 1, 1},
	} {
		const bm = 65536
		cells, err := theory.SequentialCells(tc.n, tc.n, tc.k, bm)
		if err != nil {
			return err
		}
		wt, err := theory.ParallelTime(tc.n, tc.n, tc.k, tc.p, tc.u, tc.v, bm)
		if err != nil {
			return err
		}
		sp, err := theory.ModelSpeedup(tc.n, tc.n, tc.k, tc.p, tc.u, tc.v, bm)
		if err != nil {
			return err
		}
		// The simulator replays the implementation's R = C = k schedule,
		// which has no u x v subdivision to match.
		sim := "-"
		if tc.u == 1 && tc.v == 1 {
			sim = fmt.Sprintf("%.2f", ModelSpeedup(tc.n, tc.n, ModelConfig{K: tc.k, BaseCells: bm, Workers: tc.p}))
		}
		t.AddRow(
			fmt.Sprintf("n=%d k=%d P=%d u=%d v=%d", tc.n, tc.k, tc.p, tc.u, tc.v),
			cells,
			int64(theory.SequentialBound(tc.n, tc.n, tc.k)),
			int64(wt),
			int64(theory.ParallelBound(tc.n, tc.n, tc.k, tc.p, tc.u, tc.v)),
			fmt.Sprintf("%.2f", sp),
			sim,
		)
	}
	t.AddNote("rec = exact recurrence (Eq. 28 / Theorem 2 shape); bounds = closed forms; sim = list-scheduled tile DAG")
	return t.Fprint(w)
}
