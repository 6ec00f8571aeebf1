package fastlsa

import (
	"context"
	"errors"
	"fmt"
	"io"

	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/index"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/search"
	"fastlsa/internal/seq"
	"fastlsa/internal/significance"
	"fastlsa/internal/stats"
	"fastlsa/internal/wfa"
)

// Re-exported substrate types. These aliases make the internal packages'
// types part of the public API surface without duplicating them.
type (
	// Sequence is a validated residue sequence over an Alphabet.
	Sequence = seq.Sequence
	// Alphabet is a residue universe (DNA, Protein, or custom).
	Alphabet = seq.Alphabet
	// MutationModel derives homologous sequence pairs for benchmarking.
	MutationModel = seq.MutationModel
	// Matrix is a symmetric residue-similarity table.
	Matrix = scoring.Matrix
	// Gap is a linear or affine gap-penalty model.
	Gap = scoring.Gap
	// Path is a DPM traceback path.
	Path = align.Path
	// Alignment is a scored pairwise alignment.
	Alignment = align.Alignment
	// Stats is an alignment-column summary (matches, gaps, identity).
	Stats = align.Stats
	// Counters collects instrumentation (cells computed, base cases, ...).
	Counters = stats.Counters
	// CounterSnapshot is a plain-value copy of every counter (Counters.Snapshot),
	// JSON-servable as an object keyed by counter; read one from its Counters field.
	CounterSnapshot = stats.Snapshot
	// Trace records spans of a run (general/base cases, grid fills, phase-
	// tagged wavefront tiles, tracebacks) for Chrome trace_event export.
	// Nil-safe like Counters: an absent trace costs nothing.
	Trace = obs.Trace
	// TraceTags carries a span's dimensions (rows, cols, phase, worker).
	TraceTags = obs.Tags
	// TraceSpan is one recorded interval of a Trace.
	TraceSpan = obs.Span
	// Recorder is a bounded per-job flight recorder: the engine, router and
	// solver kernels log admission, retries, routing decisions and phase
	// completions into it (NewRecorder; nil-safe).
	Recorder = obs.Recorder
	// RecorderEvent is one flight-recorder entry.
	RecorderEvent = obs.Event
	// RecorderSnapshot is a point-in-time copy of a Recorder's timeline.
	RecorderSnapshot = obs.RecorderSnapshot
	// SpanTotal is one (name, phase) aggregate row of Trace.Totals.
	SpanTotal = obs.SpanTotal
	// FormatOptions controls Alignment pretty-printing.
	FormatOptions = align.FormatOptions
	// Mode selects which terminal gaps are free (ends-free alignment).
	Mode = align.Mode
	// LocalAlignment is a Smith-Waterman local alignment result.
	LocalAlignment = fm.LocalResult
	// SearchHit is one ranked database match from Search.
	SearchHit = search.Hit
	// Index is a q-gram inverted index over a sequence database — the
	// lossless seed filter behind corpus-scale Search (BuildIndex).
	Index = index.Index
	// Corpus is a sequence database paired with its Index (LoadCorpus), the
	// cached substrate of a search server.
	Corpus = index.Corpus
	// SearchProbe is the filter-phase accounting of an indexed search
	// (entries scanned, candidates kept, prune reasons, selectivity).
	SearchProbe = index.Probe
	// GumbelParams are fitted extreme-value statistics for local scores.
	GumbelParams = significance.Params
	// RouteInfo reports which backend served a call and why (the
	// backend.Reason* constants; docs/BACKENDS.md lists the rule table).
	RouteInfo = backend.Route
	// CheckpointSink persists grid-cache snapshots for one run and supplies
	// the previous snapshot on resume (Options.Checkpoint; see
	// docs/DURABILITY.md for the blob format and resume semantics).
	CheckpointSink = core.CheckpointSink
)

// Span names recorded by a Trace, for filtering Trace.Spans / Trace.Totals.
const (
	// SpanNameGeneralCase is a FastLSA general-case recursion.
	SpanNameGeneralCase = obs.SpanGeneralCase
	// SpanNameBaseCase is a recursion solved directly in the base-case buffer.
	SpanNameBaseCase = obs.SpanBaseCase
	// SpanNameGridFill is one grid-cache fill (sequential or parallel).
	SpanNameGridFill = obs.SpanGridFill
	// SpanNameFillTile is one wavefront tile, tagged with its Figure 13
	// phase (1 ramp-up, 2 saturated, 3 ramp-down) and worker lane.
	SpanNameFillTile = obs.SpanFillTile
	// SpanNameFillBlock is one block of the sequential grid fill.
	SpanNameFillBlock = obs.SpanFillBlock
	// SpanNameTraceback is one traceback walk.
	SpanNameTraceback = obs.SpanTraceback
	// SpanNameSearchFilter is the q-gram index probe of a corpus search.
	SpanNameSearchFilter = obs.SpanSearchFilter
	// SpanNameSearchVerify is the score-only verify scan of a corpus search.
	SpanNameSearchVerify = obs.SpanSearchVerify
	// SpanNameSearchReconstruct is the exact-alignment reconstruction of the
	// leading search hits.
	SpanNameSearchReconstruct = obs.SpanSearchReconstruct
	// SpanNameBackendRoute is the backend routing decision of one Align
	// call; its tags carry the chosen backend and the routing reason.
	SpanNameBackendRoute = obs.SpanBackendRoute
	// SpanNameWFAFill is the per-score wavefront loop of a WFA run.
	SpanNameWFAFill = obs.SpanWFAFill
	// SpanNameWFABi is one bidirectional (linear-space) WFA run: score
	// pass, recursive split passes and path stitch together.
	SpanNameWFABi = obs.SpanWFABi
)

// Alphabets and scoring tables.
var (
	// DNA is the 4-letter nucleotide alphabet.
	DNA = seq.DNA
	// Protein is the 20-letter amino-acid alphabet.
	Protein = seq.Protein
	// Table1Alphabet covers the six residues of the paper's Table 1.
	Table1Alphabet = scoring.Table1Alphabet

	// Table1 is the paper's modified-Dayhoff excerpt (Figure 1 example).
	Table1 = scoring.Table1
	// MDM78 is the full non-negative Dayhoff-derived protein matrix.
	MDM78 = scoring.MDM78
	// PAM250 is the classic Dayhoff log-odds matrix.
	PAM250 = scoring.PAM250
	// BLOSUM62 is the standard BLOSUM62 protein matrix.
	BLOSUM62 = scoring.BLOSUM62
	// DNASimple scores nucleotides +5/-4.
	DNASimple = scoring.DNASimple
	// DNAStrict scores nucleotides +1/-1.
	DNAStrict = scoring.DNAStrict
	// DNAIUPAC scores the 15-letter IUPAC nucleotide alphabet (NUC.4.4-style
	// expectation scores over ambiguity sets).
	DNAIUPAC = scoring.DNAIUPAC
	// DNAIUPACAlphabet is the IUPAC nucleotide alphabet (ACGT + ambiguity).
	DNAIUPACAlphabet = seq.DNAIUPAC
)

// NewTrace returns a span recorder for Options.Trace with the given ring
// capacity (<= 0 selects the default of 32Ki spans; older spans are dropped,
// but per-span-kind totals stay exact). Export the result with
// Trace.WriteChrome / Trace.ChromeTrace — the JSON loads in chrome://tracing
// and https://ui.perfetto.dev.
func NewTrace(capacity int) *Trace { return obs.NewTrace(capacity) }

// NewRecorder returns a flight recorder for Options.Recorder /
// JobOptions.Recorder with the given event capacity (<= 0 selects the
// default of 256). The first events and the most recent ones are always
// retained; overflow drops from the middle, counted in the snapshot.
func NewRecorder(capacity int) *Recorder { return obs.NewRecorder(capacity) }

// Linear returns the paper's linear gap model (each gapped position costs g).
func Linear(g int) Gap { return scoring.Linear(g) }

// Affine returns a Gotoh affine gap model (open + length*extend).
func Affine(open, extend int) Gap { return scoring.Affine(open, extend) }

// PaperGap is the -10 linear model of the paper's worked examples.
var PaperGap = scoring.PaperGap

// Ends-free alignment modes.
var (
	// ModeGlobal charges every terminal gap (the default).
	ModeGlobal = align.Global
	// ModeOverlap makes all four terminal gaps free (semiglobal).
	ModeOverlap = align.Overlap
	// ModeFitBInA aligns all of B against a substring of A.
	ModeFitBInA = align.FitBInA
	// ModeFitAInB aligns all of A against a substring of B.
	ModeFitAInB = align.FitAInB
)

// ParseMode resolves "global", "overlap"/"semiglobal", "fit-b-in-a"/"fit",
// "fit-a-in-b".
func ParseMode(name string) (Mode, error) { return align.ParseMode(name) }

// NewSequence validates letters against the alphabet (nil selects DNA).
func NewSequence(id, letters string, a *Alphabet) (*Sequence, error) {
	return seq.New(id, letters, a)
}

// ParseAlphabet resolves "dna" or "protein".
func ParseAlphabet(name string) (*Alphabet, error) { return seq.ParseAlphabet(name) }

// MatrixByName resolves a built-in scoring matrix: "table1", "mdm78"
// ("dayhoff"), "blosum62", "dna", "dna-strict".
func MatrixByName(name string) (*Matrix, error) { return scoring.ByName(name) }

// ReadFASTA parses FASTA records (nil alphabet selects DNA).
func ReadFASTA(r io.Reader, a *Alphabet) ([]*Sequence, error) { return seq.ReadFASTA(r, a) }

// WriteFASTA renders sequences as FASTA (width <= 0 selects 70 columns).
func WriteFASTA(w io.Writer, width int, seqs ...*Sequence) error {
	return seq.WriteFASTA(w, width, seqs...)
}

// RandomSequence generates n i.i.d. residues (deterministic per seed).
func RandomSequence(id string, n int, a *Alphabet, seed int64) *Sequence {
	return seq.Random(id, n, a, seed)
}

// HomologousPair generates a reference of length n and a mutated relative
// using the model (seq.DefaultHomology-style models give 70-80% identity).
func HomologousPair(n int, a *Alphabet, model MutationModel, seed int64) (*Sequence, *Sequence, error) {
	return seq.HomologousPair(n, a, model, seed)
}

// DefaultHomology is a mutation model producing ~75%-identity pairs.
var DefaultHomology = seq.DefaultHomology

// Algorithm selects the alignment engine. Every non-auto value names one
// registered backend (internal/backend); AlgoAuto is the router.
type Algorithm int

const (
	// AlgoAuto routes each run to a backend — the paper's headline adaptive
	// mode, extended with a WFA fast path. Global-mode pairs whose scoring
	// system is WFA-compatible (uniform match/mismatch matrix, see AlgoWFA)
	// and whose estimated identity (a bounded q-gram sample of both
	// sequences) is at least backend.RouteIdentityThreshold (0.96, the
	// measured crossover where BiWFA stops beating FastLSA) run on the
	// wavefront backend — O(ns) time and, since it serves the
	// bidirectional BiWFA mode, O(s) memory; everything else — ends-free
	// modes,
	// non-uniform matrices, short or divergent or unestimable pairs — runs
	// FastLSA with parameters planned against MemoryBudget. Explicit K or
	// BaseCells overrides take precedence over the divergence estimate:
	// they are FastLSA parameters, so setting either pins the run to the
	// FastLSA backend, where they act as planning inputs re-validated
	// against the budget (never past it). An auto-routed WFA run that
	// outgrows MemoryBudget mid-flight is rerun on budget-planned FastLSA
	// instead of failing. Every decision is observable: Options.Route, the
	// backend.route trace span, and the server's
	// fastlsa_backend_total{backend,reason} metric all report the chosen
	// backend and reason (docs/BACKENDS.md lists the full rule table).
	AlgoAuto Algorithm = iota
	// AlgoFastLSA forces FastLSA with the explicit K/BaseCells parameters.
	AlgoFastLSA
	// AlgoFullMatrix forces the Needleman-Wunsch full-matrix algorithm.
	// With Workers > 1 a global alignment fills the matrix in parallel, as
	// FastLSA's parallel Base Case over the whole matrix, under either gap
	// model.
	AlgoFullMatrix
	// AlgoHirschberg forces Hirschberg's linear-space algorithm
	// (Myers-Miller under affine gaps).
	AlgoHirschberg
	// AlgoCompact forces the traceback-bit full-matrix variant (paper §2.1:
	// direction bits instead of stored scores — one eighth the footprint).
	// Linear gap models only.
	AlgoCompact
	// AlgoWFA forces the wavefront backend: exact gap-affine alignment in
	// O(ns) time, orders of magnitude faster than any mn-cell DP on
	// low-divergence pairs. Requires a uniform scoring matrix (one match
	// score on the diagonal, one mismatch score off it — "dna" and
	// "dna-strict" qualify) and global mode.
	AlgoWFA
)

// algoNames and algoValues are derived from the backend registry at init
// time: enum value i+1 names registry slot i, so a new backend is one
// Register call plus one constant (pinned by the round-trip test).
var (
	algoNames  map[Algorithm]string
	algoValues map[string]Algorithm
)

func init() {
	infos := backend.All()
	algoNames = make(map[Algorithm]string, len(infos)+1)
	algoValues = make(map[string]Algorithm, 2*len(infos)+2)
	algoNames[AlgoAuto] = "auto"
	algoValues["auto"] = AlgoAuto
	algoValues[""] = AlgoAuto
	for i, info := range infos {
		algo := Algorithm(i + 1)
		algoNames[algo] = info.Name
		algoValues[info.Name] = algo
		for _, alias := range info.Aliases {
			algoValues[alias] = algo
		}
	}
}

// String implements fmt.Stringer; non-auto values render their backend's
// canonical registry name.
func (a Algorithm) String() string {
	if name, ok := algoNames[a]; ok {
		return name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves an algorithm name or alias ("auto", "fastlsa",
// "fm", "full-matrix", "hirschberg", "compact", "wfa", ...). The accepted
// set derives from the backend registry.
func ParseAlgorithm(name string) (Algorithm, error) {
	if a, ok := algoValues[name]; ok {
		return a, nil
	}
	return 0, badInput("unknown algorithm %q", name)
}

// Input-classification sentinels (test with errors.Is). They let callers —
// the HTTP server in particular — distinguish bad requests from internal
// failures.
var (
	// ErrInvalidInput tags failures caused by invalid caller input: a missing
	// matrix, a malformed gap model, an unsupported mode/algorithm/gap
	// combination, or an unusable statistics scoring system.
	ErrInvalidInput = errors.New("fastlsa: invalid input")
	// ErrBudgetExceeded reports a run that outgrew the caller's
	// Options.MemoryBudget after its first cell: WFA's wavefronts grow as
	// the run proceeds, and an explicit FastLSA run can need more later in
	// its recursion than its first descent.
	ErrBudgetExceeded = memory.ErrExceeded
	// ErrBudgetTooSmall reports a MemoryBudget the run is refused under
	// before its first cell: below the planned FastLSA floor under AlgoAuto,
	// below what an explicit FastLSA run certainly holds at once, or below
	// the up-front charge of the other engines and Score. Like
	// ErrInvalidInput it classifies a caller mistake, not an internal fault,
	// and RetryTransient does not retry it.
	ErrBudgetTooSmall = memory.ErrTooSmall
)

// badInput wraps a validation failure with ErrInvalidInput.
func badInput(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidInput, fmt.Sprintf(format, args...))
}

// Options configures Align / AlignLocal / Score. The zero value (plus a
// Matrix) aligns with FastLSA defaults: k=8, 64Ki-entry base buffer,
// unlimited memory, all CPUs.
type Options struct {
	// Matrix is the similarity table (required).
	Matrix *Matrix
	// Gap is the gap model (zero value selects the paper's -10 linear gap).
	Gap Gap
	// Mode selects ends-free alignment (zero value = global). Non-global
	// modes require the auto, fastlsa or fm engines; both gap models work.
	Mode Mode
	// Algorithm selects the engine (default AlgoAuto).
	Algorithm Algorithm
	// MemoryBudget caps memory in DPM entries (8 bytes each); 0 = unlimited.
	// Under AlgoAuto, FastLSA plans K and BaseCells to fit it; the explicit
	// engines, AlgoFastLSA included, run with the parameters they are given.
	// Every call checks it once before its first cell and fails with
	// ErrBudgetTooSmall when the run certainly cannot fit; a run that
	// outgrows it later fails with ErrBudgetExceeded.
	MemoryBudget int64
	// Workers is the parallelism degree P (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// K and BaseCells override FastLSA's parameters (0 = defaults; see
	// package internal/core).
	K, BaseCells int
	// Counters, when non-nil, collects instrumentation.
	Counters *Counters
	// Trace, when non-nil, records spans of the run (general/base cases,
	// grid fills, phase-tagged wavefront tiles, tracebacks) for Chrome
	// trace_event export. Unlike Counters a Trace is per-run state: share one
	// across concurrent runs only if interleaved spans are acceptable.
	Trace *Trace
	// Context, when non-nil, bounds the run: cancelling it (or passing its
	// deadline) makes the fill kernels abort promptly with an error wrapping
	// context.Canceled / context.DeadlineExceeded. The signal rides on a
	// per-run child of Counters, so both this Options value and its Counters
	// may safely be shared by concurrent runs with different contexts; the
	// shared Counters still accumulates every run's work.
	Context context.Context
	// Route, when non-nil, receives the routing decision of the call (the
	// backend that actually ran and why — AlgoAuto's divergence verdict,
	// "explicit" for a forced Algorithm, or the entry point's own reason:
	// "local", "banded", or "score-only" with no backend). Every entry point
	// fills it before its first cell, so error reports can name the backend
	// even when the run then fails. Like Trace it is per-run state: do not
	// share one Route across concurrent runs.
	Route *RouteInfo
	// Recorder, when non-nil, is the run's flight recorder: the router logs
	// its decision (and any budget fallback) into it, and the solver kernels
	// append phase completions. Per-run state
	// like Trace; nil-safe and allocation-free when absent.
	Recorder *Recorder
	// Checkpoint, when non-nil, persists grid-cache snapshots of the run's
	// root fill at block-row boundaries, at most one per ~100 ms of fill (a
	// smaller run never saves), and is consulted on start to resume a
	// crashed run past its completed rows. FastLSA runs only (other backends
	// ignore it); per-run state like Trace — the server binds one sink per
	// job. A failed save or an unusable snapshot degrades to a cold run,
	// never an error.
	Checkpoint CheckpointSink
}

func (o Options) normalise() (Options, error) {
	if o.Matrix == nil {
		return o, badInput("Options.Matrix is required")
	}
	if o.Gap == (Gap{}) {
		o.Gap = PaperGap
	}
	if err := o.Gap.Validate(); err != nil {
		return o, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	if o.MemoryBudget < 0 {
		return o, badInput("negative MemoryBudget %d", o.MemoryBudget)
	}
	if o.Workers < 0 {
		return o, badInput("negative Workers %d", o.Workers)
	}
	if o.K != 0 && o.K < 2 {
		return o, badInput("K = %d, want 0 or >= 2 (paper §3)", o.K)
	}
	if o.BaseCells != 0 && o.BaseCells < core.MinBaseCells {
		return o, badInput("BaseCells = %d, want 0 or >= %d", o.BaseCells, core.MinBaseCells)
	}
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return o, fmt.Errorf("fastlsa: run abandoned before start: %w", err)
		}
		if o.Context.Done() != nil {
			// The cancellation signal rides on a per-run child of the caller's
			// Counters (Derive), never on the shared value itself: an Options
			// (and its Counters) may be reused across concurrent runs — e.g.
			// every unit of an Engine batch — each with its own context.
			o.Counters = o.Counters.Derive(o.Context)
		}
	}
	return o, nil
}

// entryKind is what a facade call computes; it decides which backends may
// serve the call and the route an AlgoAuto call of the kind takes.
type entryKind int

const (
	kindGlobal    entryKind = iota // Align: backend.Decide routes AlgoAuto
	kindLocal                      // AlignLocal: the backend.LocalAligner backends
	kindScore                      // Score: one score-only sweep, no backend
	kindBanded                     // AlignBanded with band <= 0: FastLSA
	kindFixedBand                  // AlignBanded with band > 0: the banded full matrix, no backend
)

// entry is one planned facade call: its normalised options, its route and
// the backend (nil for a kind that runs none), and what the run is handed.
type entry struct {
	opt    Options
	route  RouteInfo
	bk     backend.Backend
	req    backend.Request
	budget *memory.Budget // a run outside the registry charges this one
}

// plan is the one entry path of every facade call, run once before the
// first cell: it normalises the options, picks the backend, checks that the
// backend serves the kind, records the route (a backend.route span, an
// EvRoute event and Options.Route) and materialises the budget. FastLSA
// runs then plan their parameters (core.PlanOptions under AlgoAuto) and
// check the budget against their first descent (internal/core) before
// their first cell too.
func plan(a, b *Sequence, opt Options, kind entryKind) (entry, error) {
	opt, err := opt.normalise()
	if err != nil {
		return entry{}, err
	}
	if (kind == kindBanded || kind == kindFixedBand) && (!opt.Gap.IsLinear() || !opt.Mode.IsGlobal()) {
		return entry{}, badInput("banded alignment requires a linear gap model and global mode")
	}
	e := entry{opt: opt}
	start := opt.Trace.Begin()
	route, err := pickRoute(a, b, opt, kind)
	if err != nil {
		return entry{}, err
	}
	opt.Trace.End(SpanNameBackendRoute, obs.CatBackend, start, obs.Tags{Backend: route.Backend, Reason: route.Reason})
	e.setRoute(route)
	e.bk, _ = backend.Lookup(route.Backend)
	e.req = backend.Request{
		Matrix: opt.Matrix,
		Gap:    opt.Gap,
		Mode:   opt.Mode,
		// AlgoAuto plans FastLSA's parameters against the budget: explicit
		// K / BaseCells become planning inputs, so an override can never
		// push the run past the budget the plan was sized for.
		Planned:      opt.Algorithm == AlgoAuto && route.Backend == backend.NameFastLSA,
		MemoryBudget: opt.MemoryBudget,
		Workers:      opt.Workers,
		K:            opt.K,
		BaseCells:    opt.BaseCells,
		Counters:     opt.Counters,
		Obs:          obs.Run{Trace: opt.Trace, Recorder: opt.Recorder, Prof: opt.Context},
		Checkpoint:   opt.Checkpoint,
	}
	if e.bk == nil {
		e.budget, err = e.req.Budget()
	}
	return e, err
}

// pickRoute resolves which backend serves the call. The kinds that run no
// backend ignore Algorithm; under AlgoAuto a global call takes the
// divergence-adaptive router's verdict and the other kinds run FastLSA;
// a forced Algorithm names a backend, checked against the kind and its
// capabilities. A local alignment is free at all four ends already, so it
// ignores Mode.
func pickRoute(a, b *Sequence, opt Options, kind entryKind) (RouteInfo, error) {
	switch {
	case kind == kindScore:
		return RouteInfo{Reason: backend.ReasonScoreOnly}, nil
	case kind == kindFixedBand:
		return RouteInfo{Reason: backend.ReasonBanded}, nil
	case opt.Algorithm != AlgoAuto:
		break
	case kind == kindLocal:
		return RouteInfo{Backend: backend.NameFastLSA, Reason: backend.ReasonLocal}, nil
	case kind == kindBanded:
		return RouteInfo{Backend: backend.NameFastLSA, Reason: backend.ReasonBanded}, nil
	default:
		return backend.Decide(a, b, opt.Matrix, opt.Gap, opt.Mode, opt.K != 0 || opt.BaseCells != 0), nil
	}
	name := opt.Algorithm.String()
	bk, ok := backend.Lookup(name)
	if !ok {
		return RouteInfo{}, badInput("unknown algorithm %v", opt.Algorithm)
	}
	if _, local := bk.(backend.LocalAligner); kind == kindLocal && !local {
		return RouteInfo{}, badInput("the %v engine does not serve local alignment", opt.Algorithm)
	}
	if kind == kindBanded && name != backend.NameFastLSA {
		return RouteInfo{}, badInput("banded alignment with band <= 0 runs on FastLSA (got %v)", opt.Algorithm)
	}
	if !opt.Mode.IsGlobal() && !bk.Caps().EndsFree {
		return RouteInfo{}, badInput("ends-free modes support the auto, fastlsa and fm engines (got %v)", opt.Algorithm)
	}
	if !opt.Gap.IsLinear() && !bk.Caps().AffineGaps {
		return RouteInfo{}, badInput("the %v engine supports linear gap models only", opt.Algorithm)
	}
	if bk.Caps().UniformScoresOnly {
		if _, werr := wfa.FromScoring(opt.Matrix, a.Alphabet, opt.Gap); werr != nil {
			return RouteInfo{}, fmt.Errorf("%w: %w", ErrInvalidInput, werr)
		}
	}
	return RouteInfo{Backend: name, Reason: backend.ReasonExplicit}, nil
}

// setRoute makes r the call's route: Options.Route reports it and the
// flight recorder logs it.
func (e *entry) setRoute(r RouteInfo) {
	e.route = r
	if e.opt.Route != nil {
		*e.opt.Route = r
	}
	e.opt.Recorder.Add(obs.Event{Kind: obs.EvRoute, Detail: r.Backend, Extra: r.Reason, Value: r.Identity})
}

// dispatch runs a planned call on its backend. An auto-routed WFA run whose
// wavefronts outgrow the memory budget — possible when the divergence
// estimate undershoots — reruns on budget-planned FastLSA, which by
// construction fits any budget PlanOptions accepts.
func dispatch[R any](e entry, a, b *Sequence, run func(backend.Backend, *Sequence, *Sequence, backend.Request) (R, error)) (R, error) {
	res, err := run(e.bk, a, b, e.req)
	if err != nil && e.opt.Algorithm == AlgoAuto && e.route.Backend == backend.NameWFA && errors.Is(err, ErrBudgetExceeded) {
		// The re-route is a decision, not a timed step: only the events log
		// it (the backend.route span covers the original routing).
		e.opt.Recorder.Add(obs.Event{Kind: obs.EvBudgetFallback, Detail: err.Error()})
		e.setRoute(RouteInfo{Backend: backend.NameFastLSA, Reason: backend.ReasonBudgetFallback, Identity: e.route.Identity})
		e.bk, _ = backend.Lookup(backend.NameFastLSA)
		e.req.Planned = true
		res, err = run(e.bk, a, b, e.req)
	}
	return res, err
}

// Align computes the optimal global alignment of a and b.
func Align(a, b *Sequence, opt Options) (*Alignment, error) {
	e, err := plan(a, b, opt, kindGlobal)
	if err != nil {
		return nil, err
	}
	res, err := dispatch(e, a, b, backend.Backend.Align)
	if err != nil {
		return nil, err
	}
	return align.New(a, b, res.Path, res.Score)
}

// Score computes only the optimal alignment score with one score-only
// kernel sweep, in linear space, whatever Algorithm names. Ends-free modes
// and both gap models are supported. The memory budget is charged the
// sweep's boundary and output edges, a row and a column each, before the
// first cell; a budget below that fails with ErrBudgetTooSmall. The route
// reports reason "score-only" and no backend.
func Score(a, b *Sequence, opt Options) (int64, error) {
	e, err := plan(a, b, opt, kindScore)
	if err != nil {
		return 0, err
	}
	k := kernel.New(e.opt.Matrix, kernel.FromGap(e.opt.Gap), memory.Shared, e.opt.Counters)
	charge := k.Mod.Lanes() * 2 * int64(a.Len()+b.Len()+2)
	if err := e.budget.ReserveRun(charge); err != nil {
		return 0, fmt.Errorf("fastlsa: Score rows of %d entries: %w", charge, err)
	}
	defer e.budget.Release(charge)
	return k.Score(a.Residues, b.Residues, e.opt.Mode)
}

// AlignLocal computes the optimal Smith-Waterman local alignment under
// either gap model. AlgoAuto and AlgoFastLSA run in FastLSA-bounded space;
// AlgoFullMatrix stores the complete matrix. The route reports the backend,
// with reason "local" under AlgoAuto.
func AlignLocal(a, b *Sequence, opt Options) (*LocalAlignment, error) {
	e, err := plan(a, b, opt, kindLocal)
	if err != nil {
		return nil, err
	}
	res, err := dispatch(e, a, b, func(bk backend.Backend, a, b *Sequence, req backend.Request) (LocalAlignment, error) {
		return bk.(backend.LocalAligner).AlignLocal(a, b, req)
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// AlignBanded computes a banded global alignment: only cells within the
// given diagonal band are evaluated (O((m+n)*band) time and space). The
// result is the global optimum whenever the optimal path fits in the band
// (guaranteed for band >= max(m, n)); otherwise it is the best alignment
// confined to the band. band <= 0 runs FastLSA instead, which is exact in
// linear space. Linear gap models and global mode only; the route reports
// reason "banded" under AlgoAuto, and no backend for a positive band.
func AlignBanded(a, b *Sequence, opt Options, band int) (*Alignment, error) {
	kind := kindBanded
	if band > 0 {
		kind = kindFixedBand
	}
	e, err := plan(a, b, opt, kind)
	if err != nil {
		return nil, err
	}
	var res fm.Result
	if band > 0 {
		res, err = fm.AlignBanded(a, b, e.opt.Matrix, e.opt.Gap, band, e.budget, e.opt.Counters)
	} else {
		res, err = dispatch(e, a, b, backend.Backend.Align)
	}
	if err != nil {
		return nil, err
	}
	return align.New(a, b, res.Path, res.Score)
}

// EstimateStatistics fits Karlin-Altschul-style Gumbel parameters (lambda,
// K) for the scoring system by Monte-Carlo simulation, enabling E-values and
// bit scores for local alignment hits. Deterministic per seed; linear gap
// models only. sampleLen/samples <= 0 select 200/100.
func EstimateStatistics(matrix *Matrix, gap Gap, sampleLen, samples int, seed int64) (GumbelParams, error) {
	opt := significance.Options{Seed: seed}
	if sampleLen > 0 {
		opt.SampleLen = sampleLen
	}
	if samples > 0 {
		opt.Samples = samples
	}
	params, err := significance.Estimate(matrix, gap, opt)
	if err != nil {
		// Every failure mode here is input-shaped: the caller's scoring
		// system or sampling parameters are unusable for a Gumbel fit.
		return GumbelParams{}, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	return params, nil
}

// SearchOptions configures Search.
type SearchOptions struct {
	// Matrix and Gap define the scoring system (linear gaps; zero Gap
	// selects Linear(-12), a tail-friendly default for +5/-4-style tables).
	Matrix *Matrix
	Gap    Gap
	// TopK bounds the returned hits (0 selects 10); Alignments bounds how
	// many of them get full alignments reconstructed (0 = all of TopK).
	TopK, Alignments int
	// MinScore drops weaker candidates; MaxEValue (requires Stats) drops
	// insignificant ones.
	MinScore  int64
	MaxEValue float64
	// Stats annotates hits with E-values and bit scores.
	Stats *GumbelParams
	// Workers parallelises the database scan.
	Workers int
	// Counters, when non-nil, accumulates the scan's DP work and the search
	// funnel (scanned / candidates / examined).
	Counters *Counters
	// Context, when non-nil, bounds the search the same way Options.Context
	// bounds an alignment run.
	Context context.Context
	// Index, when non-nil, is a q-gram index built over exactly this
	// database (BuildIndex(db, q) or Corpus.Index): the seed filter prunes
	// entries that provably cannot reach MinScore and the verify scan
	// early-abandons entries whose score upper bound falls below the running
	// top-K floor. Both prunes are lossless: the hits are identical to an
	// index-free search.
	Index *Index
	// Probe, when non-nil, receives the filter-phase accounting of an
	// indexed search (untouched when Index is nil).
	Probe *SearchProbe
	// OnHit, when non-nil, streams provisional hits as the scan finds them
	// (serialised, unordered; the final ranked hits are the return value).
	OnHit func(SearchHit)
	// Trace, when non-nil, records filter/verify/reconstruct phase spans.
	Trace *Trace
	// Recorder, when non-nil, receives flight-recorder phase events for the
	// filter/verify/reconstruct pipeline. Nil-safe like Trace.
	Recorder *Recorder
}

// Search ranks database sequences by optimal local alignment score against
// the query (homology search — the application the paper's introduction
// motivates). The scan uses the O(min) score-only kernel; the top hits'
// alignments are reconstructed in FastLSA-bounded space.
func Search(query *Sequence, db []*Sequence, opt SearchOptions) ([]SearchHit, error) {
	if opt.Context != nil {
		if err := opt.Context.Err(); err != nil {
			return nil, fmt.Errorf("fastlsa: search abandoned before start: %w", err)
		}
		if opt.Context.Done() != nil {
			// Per-run child, as in Options.normalise: the caller's Counters
			// may be shared across concurrent searches.
			opt.Counters = opt.Counters.Derive(opt.Context)
		}
	}
	return search.Query(query, db, search.Options{
		Matrix:     opt.Matrix,
		Gap:        opt.Gap,
		TopK:       opt.TopK,
		Alignments: opt.Alignments,
		MinScore:   opt.MinScore,
		MaxEValue:  opt.MaxEValue,
		Stats:      opt.Stats,
		Workers:    opt.Workers,
		Pairwise:   core.Options{Workers: 1},
		Counters:   opt.Counters,
		Index:      opt.Index,
		Probe:      opt.Probe,
		OnHit:      opt.OnHit,
		Obs:        obs.Run{Trace: opt.Trace, Recorder: opt.Recorder, Prof: opt.Context},
	})
}

// BuildIndex builds a q-gram inverted index over the database for use as
// SearchOptions.Index (q <= 0 selects a per-alphabet default: the largest q
// whose gram space stays small). The index is immutable once built and safe
// for concurrent searches.
func BuildIndex(db []*Sequence, q int) (*Index, error) {
	ix, err := index.Build(db, q)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	return ix, nil
}

// LoadCorpus reads a FASTA file and indexes it — the server's -corpus
// startup path (nil alphabet selects DNA; q <= 0 selects the default).
func LoadCorpus(path string, a *Alphabet, q int) (*Corpus, error) {
	return index.Load(path, a, q)
}
