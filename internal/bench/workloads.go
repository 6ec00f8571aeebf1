// Package bench provides the benchmark-harness substrate used to regenerate
// the paper's evaluation: Table-3-style workloads (synthetic homologous
// pairs standing in for the paper's biological test data — see DESIGN.md
// §4), single-run measurement, and plain-text table/series formatting shared
// by cmd/fastlsa-bench and the root bench_test.go targets.
package bench

import (
	"fmt"
	"time"

	"fastlsa/internal/backend"
	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/hirschberg"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/wfa"
)

// Workload is one benchmark problem: a homologous pair specification.
type Workload struct {
	// Name labels the workload in tables ("dna-5k", "prot-2k", ...).
	Name string
	// Length is the reference-sequence length; the partner's length varies
	// around it per the mutation model.
	Length int
	// Alphabet selects DNA or Protein residues.
	Alphabet *seq.Alphabet
	// Seed makes the workload reproducible.
	Seed int64
	// Model is the homology channel (zero value selects DefaultHomology).
	Model seq.MutationModel
}

// Generate materialises the sequence pair.
func (w Workload) Generate() (*seq.Sequence, *seq.Sequence, error) {
	model := w.Model
	if model == (seq.MutationModel{}) {
		model = seq.DefaultHomology
	}
	a, b, err := seq.HomologousPair(w.Length, w.Alphabet, model, w.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: workload %s: %w", w.Name, err)
	}
	return a, b, nil
}

// Matrix returns the natural scoring matrix for the workload's alphabet.
func (w Workload) Matrix() *scoring.Matrix {
	if w.Alphabet == seq.Protein {
		return scoring.BLOSUM62
	}
	return scoring.DNASimple
}

// Table3Workloads mirrors the paper's Table 3 problem-size ladder ("actual
// biological data" ranging from thousands to hundreds of thousands of
// residues). The small ladder keeps CI-friendly sizes; large=true extends to
// the paper's upper range.
func Table3Workloads(large bool) []Workload {
	sizes := []int{1000, 2000, 5000, 10000}
	if large {
		sizes = append(sizes, 20000, 50000, 100000)
	}
	var out []Workload
	for i, n := range sizes {
		out = append(out,
			Workload{Name: fmt.Sprintf("dna-%s", kilo(n)), Length: n, Alphabet: seq.DNA, Seed: int64(1000 + i)},
		)
	}
	// A protein ladder at the sizes proteins actually have.
	for i, n := range []int{500, 1000, 5000} {
		out = append(out,
			Workload{Name: fmt.Sprintf("prot-%s", kilo(n)), Length: n, Alphabet: seq.Protein, Seed: int64(2000 + i)},
		)
	}
	return out
}

func kilo(n int) string {
	if n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

// Engine identifies an alignment engine for measurements.
type Engine string

// Engines under measurement.
const (
	EngineFM         Engine = "fm"
	EngineFMParallel Engine = "fm-par"
	EngineHirschberg Engine = "hirschberg"
	EngineFastLSA    Engine = "fastlsa"
	EngineWFA        Engine = "wfa"
	EngineBiWFA      Engine = "biwfa"
)

// Config is one measured configuration.
type Config struct {
	Engine    Engine
	Gap       scoring.Gap
	K         int   // FastLSA k
	BaseCells int   // FastLSA BM
	Workers   int   // P
	Budget    int64 // RM in entries (0 = unlimited)
}

// Measurement is the outcome of one run.
type Measurement struct {
	Duration time.Duration
	Score    int64
	Stats    stats.Snapshot
	PeakMem  int64 // budget peak, entries (0 when unbudgeted)
	Err      error
}

// CellsPerSecond reports throughput in DPM cells per second.
func (m Measurement) CellsPerSecond() float64 {
	if m.Duration <= 0 {
		return 0
	}
	return float64(m.Stats[stats.Cells]) / m.Duration.Seconds()
}

// Run executes one alignment under cfg and measures it.
func Run(a, b *seq.Sequence, matrix *scoring.Matrix, cfg Config) Measurement {
	var (
		c      stats.Counters
		budget *memory.Budget
		err    error
	)
	if cfg.Budget > 0 {
		budget, err = memory.NewBudget(cfg.Budget)
		if err != nil {
			return Measurement{Err: err}
		}
	}
	gap := cfg.Gap
	if gap == (scoring.Gap{}) {
		gap = scoring.Linear(-4)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}

	start := time.Now()
	var score int64
	switch cfg.Engine {
	case EngineFM:
		var res fm.Result
		res, err = fm.Align(a, b, matrix, gap, budget, &c)
		score = res.Score
	case EngineFMParallel:
		fmb, _ := backend.Lookup(backend.NameFullMatrix)
		var res fm.Result
		res, err = fmb.Align(a, b, backend.Request{Matrix: matrix, Gap: gap, MemoryBudget: cfg.Budget, Workers: workers, Counters: &c})
		score = res.Score
	case EngineHirschberg:
		var res fm.Result
		res, err = hirschberg.Align(a, b, matrix, gap, hirschberg.Options{}, budget, &c)
		score = res.Score
	case EngineFastLSA:
		var res core.Result
		res, err = core.Align(a, b, matrix, gap, core.Options{
			K:         cfg.K,
			BaseCells: cfg.BaseCells,
			Budget:    budget,
			Workers:   workers,
			Counters:  &c,
		})
		score = res.Score
	case EngineWFA:
		var res fm.Result
		res, err = wfa.Align(a, b, matrix, gap, wfa.Options{Budget: budget, Counters: &c})
		score = res.Score
	case EngineBiWFA:
		var res fm.Result
		res, err = wfa.BiAlign(a, b, matrix, gap, wfa.Options{Budget: budget, Counters: &c})
		score = res.Score
	default:
		err = fmt.Errorf("bench: unknown engine %q", cfg.Engine)
	}
	m := Measurement{
		Duration: time.Since(start),
		Score:    score,
		Stats:    c.Snapshot(),
		Err:      err,
	}
	if budget != nil {
		m.PeakMem = budget.Peak()
	}
	return m
}
