// Package backend is the pluggable aligner layer behind the fastlsa facade:
// a Backend interface with declared capabilities, a registry the facade's
// Algorithm enum is derived from, and the divergence-adaptive router that
// picks a backend under AlgoAuto (docs/BACKENDS.md). Adding a backend is
// one Register call plus an enum constant: the name tables, capability
// checks and CLI help all derive from the registry.
package backend

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// Canonical backend names, in registry order. The facade's Algorithm enum
// mirrors this order (AlgoFastLSA = slot 0 + 1, ...), pinned by the
// registry round-trip test.
const (
	NameFastLSA    = "fastlsa"
	NameFullMatrix = "fm"
	NameHirschberg = "hirschberg"
	NameCompact    = "compact"
	NameWFA        = "wfa"
)

// Capabilities declares what a backend supports, so the facade and router
// can reject or re-route a request before the backend runs.
type Capabilities struct {
	// EndsFree: serves ends-free Modes in addition to global alignment.
	EndsFree bool
	// AffineGaps: serves affine gap models (linear is universal).
	AffineGaps bool
	// LinearSpace: memory grows sub-quadratically in the problem size.
	LinearSpace bool
	// Parallel: exploits Request.Workers > 1.
	Parallel bool
	// UniformScoresOnly: requires a uniform match/mismatch matrix
	// (WFA's penalty-model constraint; see wfa.FromScoring).
	UniformScoresOnly bool
	// PlansToBudget: adapts its parameters to fit Request.MemoryBudget
	// instead of failing when a fixed-shape run would not fit.
	PlansToBudget bool
}

// Request carries one alignment problem plus the resource and
// instrumentation hooks every backend threads through: a memory budget,
// cancellation-capable counters, and a trace.
type Request struct {
	// Matrix and Gap define the scoring system (both validated upstream by
	// the facade).
	Matrix *scoring.Matrix
	Gap    scoring.Gap
	// Mode selects ends-free alignment (zero value = global). Backends
	// without the EndsFree capability are never handed a non-global Mode.
	Mode align.Mode
	// Planned selects budget-planned parameters for the FastLSA backend
	// (core.PlanOptions, the AlgoAuto contract); other backends ignore it.
	Planned bool
	// MemoryBudget caps memory in DP entries (8 bytes each); 0 = unlimited.
	MemoryBudget int64
	// Workers is the parallelism degree (0 = GOMAXPROCS).
	Workers int
	// K and BaseCells override FastLSA's parameters (0 = defaults).
	K, BaseCells int
	// Counters collects instrumentation and carries cancellation.
	Counters *stats.Counters
	// Obs is the run's instrumentation handle (spans, flight-recorder
	// events, pprof labels, phase seconds), handed to the backend unchanged;
	// backends without phases ignore it.
	Obs obs.Run
	// Checkpoint, when non-nil, is the run's grid-cache checkpoint sink
	// (core.Options.Checkpoint): the FastLSA backend snapshots its root grid
	// at block-row boundaries and resumes from the sink's blob after a crash.
	// Backends without a grid cache ignore it.
	Checkpoint core.CheckpointSink
}

// Budget materialises the request's memory budget (nil = unlimited).
func (r Request) Budget() (*memory.Budget, error) {
	if r.MemoryBudget == 0 {
		return nil, nil
	}
	return memory.NewBudget(r.MemoryBudget)
}

// Backend is one alignment engine: it solves a global (or, with the
// EndsFree capability, ends-free) pairwise alignment exactly.
type Backend interface {
	Name() string
	Caps() Capabilities
	Align(a, b *seq.Sequence, req Request) (fm.Result, error)
}

// LocalAligner is implemented by the backends that also serve optimal
// Smith-Waterman local alignment; the facade routes AlignLocal only to them.
type LocalAligner interface {
	AlignLocal(a, b *seq.Sequence, req Request) (fm.LocalResult, error)
}

// Info is one registry row.
type Info struct {
	// Name is the canonical backend name.
	Name string
	// Aliases are accepted alternative spellings (ParseAlgorithm).
	Aliases []string
	// Summary is a one-line description for CLI help and docs.
	Summary string
	// Impl is the backend itself.
	Impl Backend
}

var (
	registry []Info
	byName   = map[string]Backend{}
)

// Register adds a backend to the registry. Registration order is part of
// the facade contract (the Algorithm enum indexes it); duplicate names or
// aliases panic at init time.
func Register(info Info) {
	if info.Name == "" || info.Impl == nil {
		panic("backend: Register requires a name and an implementation")
	}
	if _, dup := byName[info.Name]; dup {
		panic(fmt.Sprintf("backend: duplicate name %q", info.Name))
	}
	registry = append(registry, info)
	byName[info.Name] = info.Impl
	for _, alias := range info.Aliases {
		if _, dup := byName[alias]; dup {
			panic(fmt.Sprintf("backend: duplicate alias %q", alias))
		}
		byName[alias] = info.Impl
	}
}

// All returns the registry rows in registration order.
func All() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Lookup resolves a canonical name or alias to its backend.
func Lookup(name string) (Backend, bool) {
	b, ok := byName[name]
	return b, ok
}

// CoreOptions materialises core solver options from a Request: planned
// requests run core.PlanOptions against the memory budget (the AlgoAuto
// contract — explicit K/BaseCells overrides are planning inputs there, so
// an override can never push the run past the budget), unplanned requests
// take K/BaseCells literally with a fixed budget.
func CoreOptions(req Request, m, n int) (core.Options, error) {
	opt := core.Options{K: req.K, BaseCells: req.BaseCells, Workers: req.Workers}
	var err error
	if req.Planned {
		opt, err = core.PlanOptions(m, n, req.MemoryBudget, req.Workers, !req.Gap.IsLinear(), req.K, req.BaseCells)
	} else {
		opt.Budget, err = req.Budget()
	}
	if err != nil {
		return core.Options{}, err
	}
	opt.Counters, opt.Obs, opt.Checkpoint = req.Counters, req.Obs, req.Checkpoint
	return opt, nil
}
