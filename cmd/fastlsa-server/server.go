package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastlsa"
	"fastlsa/internal/engine"
	"fastlsa/internal/journal"
	"fastlsa/internal/obs"
	"fastlsa/internal/stats"
)

// serverConfig bounds the service.
type serverConfig struct {
	// MaxSequenceLen caps each input sequence (0 selects 1_000_000).
	MaxSequenceLen int
	// MaxBodyBytes caps the request body (0 selects 64 MiB).
	MaxBodyBytes int64
	// DefaultWorkers is used when a request does not set workers.
	DefaultWorkers int
	// EngineWorkers sizes the job engine's worker pool (0 = GOMAXPROCS).
	EngineWorkers int
	// QueueDepth bounds the engine's submission queue; saturated queues
	// reject with 503 (0 = 4x workers).
	QueueDepth int
	// MaxRetained bounds how many finished jobs stay queryable (0 = 256).
	MaxRetained int
	// MaxRetainedResults bounds how many retained jobs keep their full
	// result payload in memory (0 = 64).
	MaxRetainedResults int
	// MaxBatch caps the units of one POST /v1/batch request (0 selects 64).
	MaxBatch int
	// BreakerWait is the p95 queue-wait threshold that trips the overload
	// breaker shedding synchronous requests (0 selects 5s; negative disables
	// the breaker).
	BreakerWait time.Duration
	// BreakerCooldown is how long a tripped breaker sheds before it closes
	// and re-measures (0 selects 5s).
	BreakerCooldown time.Duration
	// BreakerWindow is the sliding sample window the p95 is computed over
	// (0 selects 128 pickups).
	BreakerWindow int
	// Logger, when non-nil, receives one structured access-log record per
	// request (request id, route, status, latency).
	Logger *slog.Logger
	// Corpus, when non-nil, is the pre-indexed sequence database served by
	// corpus searches (GET /v1/search, and POST /v1/search bodies with no
	// inline database). Loaded once at startup via the -corpus flag.
	Corpus *fastlsa.Corpus
	// SearchRate and SearchBurst configure per-client token-bucket rate
	// limiting on /v1/search (tokens per second and bucket size). A rate of
	// 0 disables limiting.
	SearchRate  float64
	SearchBurst int
	// StreamTimeout bounds a streaming search request; streaming responses
	// bypass the buffering http.TimeoutHandler, so the deadline rides on
	// the request context instead (0 = 5 minutes).
	StreamTimeout time.Duration
	// ProfLabels switches pprof label attribution (job_id/backend/phase) on
	// for work run through this server (process-wide; see obs.SetProfLabels).
	ProfLabels bool
	// DataDir, when non-empty, enables the durable job journal: async jobs
	// (POST /v1/jobs) are recorded in an append-only WAL under this
	// directory, grid-cache checkpoints are persisted alongside, and on
	// restart non-terminal jobs are replayed and re-enqueued
	// (docs/DURABILITY.md). Empty keeps the server fully in-memory.
	DataDir string
	// JournalFsync selects the journal's fsync policy: "always",
	// "interval" (default) or "never".
	JournalFsync string
	// JournalSegmentBytes overrides the journal's segment rotation
	// threshold (0 = 4 MiB; tests shrink it to exercise rotation).
	JournalSegmentBytes int64
}

func (c serverConfig) withDefaults() serverConfig {
	if c.MaxSequenceLen == 0 {
		c.MaxSequenceLen = 1_000_000
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.BreakerWait == 0 {
		c.BreakerWait = 5 * time.Second
	}
	if c.StreamTimeout == 0 {
		c.StreamTimeout = 5 * time.Minute
	}
	return c
}

// server is the handler tree plus the job engine every request routes
// through — synchronous endpoints for admission control and cancellation on
// client disconnect, asynchronous ones for the job lifecycle.
type server struct {
	http.Handler
	cfg serverConfig
	eng *fastlsa.Engine
	// metrics accumulates the alignment work of every request served —
	// each task derives a per-run child from it, so the shared value stays
	// race-free while /v1/stats can report service-wide counters.
	metrics *fastlsa.Counters
	// reg is the Prometheus-style registry behind GET /metrics; httpm holds
	// the per-route HTTP request counters and latency histograms.
	reg        *obs.Registry
	httpm      *obs.HTTPMetrics
	batchSizes *obs.Histogram
	// backendTotal counts served global alignments by aligner backend and
	// routing reason, so dashboards can watch how often AlgoAuto picks the
	// WFA kernel versus FastLSA (docs/BACKENDS.md).
	backendTotal *obs.CounterVec
	// queueWait tracks per-attempt queue waits; breaker sheds synchronous
	// requests when its p95 crosses cfg.BreakerWait (see resilience.go).
	queueWait *obs.Histogram
	breaker   *breaker
	// draining flips /readyz to 503 during shutdown while /healthz stays OK.
	draining atomic.Bool
	logger   *slog.Logger
	start    time.Time
	// corpus is the pre-indexed search database (nil without -corpus);
	// limiter rate-limits /v1/search per client (nil = unlimited).
	corpus  *fastlsa.Corpus
	limiter *rateLimiter
	// phaseSecs exports obs.PhaseSeconds, the wall time spent inside each
	// (backend, phase) bracket; phaseSeen holds the last drained totals (in
	// PhaseSeconds order) so the counter only ever receives positive deltas.
	// rtSnap is the runtime snapshot behind the fastlsa_go_* families, cached
	// per scrape. Both are guarded by scrapeMu.
	phaseSecs *obs.CounterVec
	scrapeMu  sync.Mutex
	phaseSeen []float64
	rtSnap    obs.RuntimeSnapshot
	// incidents is the server-wide ring of recent 5xx responses and failed
	// jobs (GET /v1/debug/incidents).
	incidents *incidentRing
	// Durable-journal state (nil/zero without -data-dir; durability.go).
	// journal is the append-only WAL; recovering gates /readyz and POST
	// /v1/jobs while startup replay re-enqueues pre-crash jobs.
	journal    *journal.Journal
	recovering atomic.Bool
	bootID     string
	durableSeq atomic.Uint64
	// durableIDs is the set of journal-backed job ids (the event hook's
	// filter); journalDone holds terminal pre-crash jobs so Idempotency-Key
	// retries find them instead of duplicating work. Both under durableMu.
	durableMu   sync.Mutex
	durableIDs  map[string]struct{}
	journalDone map[string]*journal.JobRecord
	// idemIndex maps Idempotency-Key headers to job ids (rebuilt from the
	// journal on restart).
	idemMu    sync.Mutex
	idemIndex map[string]string
	// recoveryTrace records the startup journal.replay span.
	recoveryTrace *obs.Trace
}

// newServer builds the HTTP handler tree backed by a fresh job engine. With
// cfg.DataDir set it also opens the durable journal, replays it, and
// re-enqueues every pre-crash non-terminal job before returning (a call to
// newServerDurable gets the journal-open error instead of a panic).
func newServer(cfg serverConfig) *server {
	s, err := newServerDurable(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func newServerDurable(cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	s := &server{
		cfg:         cfg,
		metrics:     &fastlsa.Counters{},
		breaker:     newBreaker(cfg.BreakerWait, cfg.BreakerCooldown, cfg.BreakerWindow),
		reg:         obs.NewRegistry(),
		logger:      cfg.Logger,
		start:       time.Now(),
		corpus:      cfg.Corpus,
		limiter:     newRateLimiter(cfg.SearchRate, cfg.SearchBurst),
		phaseSeen:   make([]float64, len(obs.PhaseSeconds())),
		incidents:   newIncidentRing(defaultIncidents),
		durableIDs:  make(map[string]struct{}),
		journalDone: make(map[string]*journal.JobRecord),
		idemIndex:   make(map[string]string),
	}
	// Open the journal before the engine exists: the replay summary drives
	// recovery, and the engine's event hook must never observe a nil journal.
	var replay *journal.ReplaySummary
	if cfg.DataDir != "" {
		// Finished jobs stay answerable across restarts, by id and by
		// Idempotency-Key, as many as the engine retains in memory.
		keep := cfg.MaxRetained
		if keep <= 0 {
			keep = engine.DefaultMaxRetained
		}
		j, sum, err := journal.Open(cfg.DataDir, journal.Options{
			Fsync:        cfg.JournalFsync,
			SegmentBytes: cfg.JournalSegmentBytes,
			KeepTerminal: keep,
		})
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		s.journal = j
		replay = sum
		s.bootID = fmt.Sprintf("%x", time.Now().UnixNano())
		s.recoveryTrace = obs.NewTrace(0)
		s.recovering.Store(true)
	}
	if cfg.ProfLabels {
		obs.SetProfLabels(true)
	}
	s.httpm = obs.NewHTTPMetrics(s.reg, "fastlsa")
	s.batchSizes = s.reg.Histogram("fastlsa_batch_size",
		"Units per admitted POST /v1/batch request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	s.backendTotal = s.reg.CounterVec("fastlsa_backend_total",
		"Global and local alignments served, by aligner backend and routing reason.",
		"backend", "reason")
	s.queueWait = s.reg.Histogram("fastlsa_engine_queue_wait_seconds",
		"Queue wait per job attempt, observed at worker pickup.",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30})
	// Every job pickup feeds both the latency histogram and the overload
	// breaker, which sheds synchronous requests while the p95 is unhealthy.
	engCfg := fastlsa.EngineConfig{
		Workers:            cfg.EngineWorkers,
		QueueDepth:         cfg.QueueDepth,
		MaxRetained:        cfg.MaxRetained,
		MaxRetainedResults: cfg.MaxRetainedResults,
		ObserveQueueWait: func(d time.Duration) {
			s.queueWait.Observe(d.Seconds())
			s.breaker.observe(d)
		},
	}
	if s.journal != nil {
		engCfg.OnJobEvent = s.onJobEvent
	}
	s.eng = fastlsa.NewEngine(engCfg)
	s.registerMetrics()

	mux := http.NewServeMux()
	s.handle(mux, "GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	s.handle(mux, "GET /readyz", http.HandlerFunc(s.handleReadyz))
	// The scrape-time families (CPU-attribution counters, runtime snapshot)
	// are recomputed just before each exposition.
	metricsHandler := s.reg.Handler()
	s.handle(mux, "GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.refreshScrapeMetrics()
		metricsHandler.ServeHTTP(w, r)
	}))
	s.handle(mux, "GET /v1/debug/incidents", http.HandlerFunc(s.handleIncidents))
	s.handle(mux, "GET /v1/matrices", http.HandlerFunc(handleMatrices))
	s.handle(mux, "POST /v1/align", withLimits(cfg, s.handleAlign))
	s.handle(mux, "POST /v1/search", withLimits(cfg, s.handleSearch))
	s.handle(mux, "GET /v1/search", http.HandlerFunc(s.handleSearchGET))
	s.handle(mux, "POST /v1/jobs", withLimits(cfg, s.handleJobSubmit))
	s.handle(mux, "GET /v1/jobs", http.HandlerFunc(s.handleJobList))
	s.handle(mux, "GET /v1/jobs/{id}", http.HandlerFunc(s.handleJobGet))
	s.handle(mux, "GET /v1/jobs/{id}/events", http.HandlerFunc(s.handleJobEvents))
	s.handle(mux, "DELETE /v1/jobs/{id}", http.HandlerFunc(s.handleJobCancel))
	s.handle(mux, "POST /v1/batch", withLimits(cfg, s.handleBatch))
	s.handle(mux, "GET /v1/stats", http.HandlerFunc(s.handleStats))
	s.Handler = mux
	// Replay recovery runs synchronously: by the time the server is handed to
	// a listener every pre-crash job is back in the queue and /readyz reports
	// ready. The recovering flag still gates the handlers, so anything that
	// observes the server mid-construction (or a test exercising the gate)
	// sees the not-ready contract.
	if s.journal != nil {
		s.recoverJobs(replay)
	}
	return s, nil
}

// handle registers pattern on mux behind the observability middleware: every
// request gets an X-Request-ID (honored when the client sent one), a route-
// labelled latency/status observation, a structured access-log record, and a
// completion-hook sample feeding the incident ring. The mux pattern doubles
// as the route label so /metrics cardinality stays bounded by the route
// table, never by request paths.
func (s *server) handle(mux *http.ServeMux, pattern string, h http.Handler) {
	mux.Handle(pattern, obs.MiddlewareObserved(pattern, s.logger, s.httpm, s.observeRequest, h))
}

// registerMetrics exports the engine scheduler gauges and the service-wide
// alignment counters on /metrics. The closures read live values at scrape
// time, so /metrics and /v1/stats always agree.
func (s *server) registerMetrics() {
	engStat := func(pick func(fastlsa.EngineStats) float64) func() float64 {
		return func() float64 { return pick(s.eng.Stats()) }
	}
	s.reg.GaugeFunc("fastlsa_engine_workers",
		"Size of the job engine worker pool.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Workers) }))
	s.reg.GaugeFunc("fastlsa_engine_queue_capacity",
		"Bound of the job submission queue.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.QueueDepth) }))
	s.reg.GaugeFunc("fastlsa_engine_queue_depth",
		"Jobs currently waiting in the queue.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Queued) }))
	s.reg.GaugeFunc("fastlsa_engine_jobs_running",
		"Jobs currently executing on workers.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Running) }))
	s.reg.CounterFunc("fastlsa_engine_jobs_submitted_total",
		"Jobs admitted to the queue (batch units included).",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Submitted) }))
	s.reg.CounterFunc("fastlsa_engine_jobs_rejected_total",
		"Submissions refused by admission control or after shutdown.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Rejected) }))
	s.reg.CounterFunc("fastlsa_engine_jobs_succeeded_total",
		"Jobs that finished successfully.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Succeeded) }))
	s.reg.CounterFunc("fastlsa_engine_jobs_failed_total",
		"Jobs that finished with an error.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Failed) }))
	s.reg.CounterFunc("fastlsa_engine_jobs_cancelled_total",
		"Jobs cancelled before completion.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Cancelled) }))
	s.reg.CounterFunc("fastlsa_engine_retries_total",
		"Job attempt re-queues performed by retry policies.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Retries) }))
	s.reg.GaugeFunc("fastlsa_breaker_state",
		"Overload breaker state: 1 while open (shedding sync requests), 0 closed.",
		func() float64 { return s.breaker.state() })
	s.reg.CounterFunc("fastlsa_breaker_trips_total",
		"Times the overload breaker tripped open on p95 queue wait.",
		func() float64 { return float64(s.breaker.trips.Load()) })
	s.reg.CounterFunc("fastlsa_breaker_shed_total",
		"Synchronous requests shed by the open overload breaker.",
		func() float64 { return float64(s.breaker.shed.Load()) })
	s.reg.CounterFunc("fastlsa_engine_batches_total",
		"Batch submissions admitted.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Batches) }))
	s.reg.CounterFunc("fastlsa_engine_batch_units_total",
		"Jobs fanned out by batch submissions.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.BatchUnits) }))
	s.reg.CounterFunc("fastlsa_jobs_recovered_total",
		"Jobs re-enqueued from the durable journal after a restart.",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Recovered) }))
	s.reg.CounterFunc("fastlsa_jobs_abandoned_total",
		"Jobs cancelled by the shutdown drain deadline (left non-terminal in the journal for the next boot).",
		engStat(func(st fastlsa.EngineStats) float64 { return float64(st.Abandoned) }))
	s.reg.GaugeFunc("fastlsa_recovery_in_progress",
		"1 while startup journal replay is re-enqueuing pre-crash jobs, 0 otherwise.",
		func() float64 {
			if s.recovering.Load() {
				return 1
			}
			return 0
		})
	if s.journal != nil {
		s.reg.CounterFunc("fastlsa_journal_appends_total",
			"Records appended to the durable job journal.",
			func() float64 { return float64(s.journal.Stats().Appends) })
		s.reg.CounterFunc("fastlsa_journal_bytes_total",
			"Bytes written to the durable job journal (framing included).",
			func() float64 { return float64(s.journal.Stats().Bytes) })
		s.reg.GaugeFunc("fastlsa_journal_segments",
			"Live WAL segment files in the journal directory.",
			func() float64 { return float64(s.journal.Stats().Segments) })
	}

	// The service-wide alignment and search counters: the counter table's
	// exported rows.
	for _, d := range stats.Table() {
		if d.Metric == "" {
			continue
		}
		read := func() float64 { return float64(d.Load(s.metrics)) }
		if d.Peak {
			s.reg.GaugeFunc(d.Metric, d.Help, read)
		} else {
			s.reg.CounterFunc(d.Metric, d.Help, read)
		}
	}
	s.reg.CounterFunc("fastlsa_search_rate_limited_total",
		"Search requests rejected 429 by the per-client rate limit.",
		func() float64 {
			if s.limiter == nil {
				return 0
			}
			return float64(s.limiter.limited.Load())
		})
	if s.corpus != nil {
		s.reg.GaugeFunc("fastlsa_corpus_entries",
			"Sequences in the loaded search corpus.",
			func() float64 { return float64(s.corpus.Len()) })
		s.reg.GaugeFunc("fastlsa_corpus_index_postings",
			"Posting-list entries in the corpus q-gram index.",
			func() float64 { return float64(s.corpus.Index.Postings()) })
	}
	s.reg.GaugeFunc("fastlsa_align_cells_per_second",
		"Service-lifetime average DP cell throughput.",
		func() float64 {
			up := time.Since(s.start).Seconds()
			if up <= 0 {
				return 0
			}
			return float64(s.metrics.Cells.Load()) / up
		})

	// Phase seconds: refreshed by refreshScrapeMetrics just before each
	// /metrics exposition. Every (backend, phase) series is exported from the
	// start, at zero until a run enters the phase.
	s.phaseSecs = s.reg.CounterVec("fastlsa_phase_seconds_total",
		"Wall-clock seconds spent inside solver and search phases, by backend and phase.",
		"backend", "phase")
	for _, p := range obs.PhaseSeconds() {
		s.phaseSecs.With(p.Backend, p.Phase)
	}

	// Process-level runtime families, read from the snapshot cached per
	// scrape so one scrape costs one runtime read, not one per family.
	s.reg.GaugeFunc("fastlsa_go_goroutines",
		"Goroutines at the last scrape.",
		s.runtimeStat(func(rt obs.RuntimeSnapshot) float64 { return float64(rt.Goroutines) }))
	s.reg.GaugeFunc("fastlsa_go_heap_bytes",
		"Live heap bytes at the last scrape.",
		s.runtimeStat(func(rt obs.RuntimeSnapshot) float64 { return float64(rt.HeapBytes) }))
	s.reg.CounterFunc("fastlsa_go_gc_cycles_total",
		"Completed GC cycles.",
		s.runtimeStat(func(rt obs.RuntimeSnapshot) float64 { return float64(rt.GCCycles) }))
	s.reg.CounterFunc("fastlsa_go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.",
		s.runtimeStat(func(rt obs.RuntimeSnapshot) float64 { return rt.GCPauseSeconds }))
	s.reg.GaugeFunc("fastlsa_process_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	// Build identity, the standard always-1 info gauge.
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				revision = kv.Value
			}
		}
	}
	s.reg.GaugeVec("fastlsa_build_info",
		"Build metadata; the value is always 1.",
		"go_version", "revision").With(runtime.Version(), revision).Set(1)
}

// shutdown flips readiness and drains the engine (used by main on
// SIGINT/SIGTERM). The journal closes only after the engine has shut down —
// Shutdown flushes the job-event dispatcher first, so every terminal record
// reaches the WAL before the final sync.
func (s *server) shutdown(ctx context.Context) error {
	s.beginDrain()
	err := s.eng.Shutdown(ctx)
	if s.journal != nil {
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// runSync executes task through the engine so the synchronous endpoints get
// the same admission control and cancellation semantics as async jobs: the
// job's context derives from the request, so a client disconnect or a
// TimeoutHandler expiry abandons the computation. An open overload breaker
// sheds the request up front with a queue-full 503 (Retry-After attached by
// writeTaskErr) instead of parking it behind an unhealthy queue.
func (s *server) runSync(r *http.Request, kind string, rec *fastlsa.Recorder, task func(ctx context.Context) (any, error)) (any, error) {
	if !s.breaker.allow(time.Now()) {
		return nil, fmt.Errorf("%w: overload breaker open (p95 queue wait over %s)",
			fastlsa.ErrQueueFull, s.cfg.BreakerWait)
	}
	j, err := s.eng.SubmitFunc(kind, task, fastlsa.JobOptions{
		Context:   r.Context(),
		RequestID: obs.RequestID(r.Context()),
		Recorder:  rec,
	})
	if err != nil {
		return nil, err
	}
	s.watchJob(j)
	return j.Wait(r.Context())
}

// errStatus maps an execution error to an HTTP status: 422 is reserved for
// known bad-input failures (an option combination the engines reject, or a
// client-chosen memory budget the run could not fit); anything unrecognized
// is an internal failure — e.g. a kernel invariant violation — and reports
// as 500 rather than being blamed on the client.
func errStatus(err error) int {
	switch {
	case errors.Is(err, fastlsa.ErrQueueFull), errors.Is(err, fastlsa.ErrEngineClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is mostly for logs.
		return http.StatusServiceUnavailable
	case errors.Is(err, fastlsa.ErrInvalidInput), errors.Is(err, fastlsa.ErrBudgetExceeded),
		errors.Is(err, fastlsa.ErrBudgetTooSmall):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func withLimits(cfg serverConfig, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, cfg.MaxBodyBytes)
		h(w, r)
	}
}

// apiError is the uniform error envelope. RetryAfterMs accompanies overload
// 503s (mirroring the Retry-After header, millisecond precision).
type apiError struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// gapSpec is the JSON gap model: {"extend": -4} or {"open": -11, "extend": -1}.
type gapSpec struct {
	Open   int `json:"open"`
	Extend int `json:"extend"`
}

func (g gapSpec) toGap() fastlsa.Gap {
	if g.Open == 0 && g.Extend == 0 {
		return fastlsa.PaperGap
	}
	return fastlsa.Affine(g.Open, g.Extend)
}

// alignRequest is the POST /v1/align body.
type alignRequest struct {
	A            string  `json:"a"`
	B            string  `json:"b"`
	AID          string  `json:"aId"`
	BID          string  `json:"bId"`
	Alphabet     string  `json:"alphabet"` // default: the matrix's alphabet
	Matrix       string  `json:"matrix"`   // default blosum62
	Gap          gapSpec `json:"gap"`
	Mode         string  `json:"mode"`      // global (default), overlap, fit-b-in-a, fit-a-in-b
	Algorithm    string  `json:"algorithm"` // auto (default), fastlsa, fm, hirschberg, compact, wfa
	Local        bool    `json:"local"`
	Workers      int     `json:"workers"`
	MemoryBudget int64   `json:"memoryBudget"`
	IncludeRows  bool    `json:"includeRows"`
	// Trace records a span trace of the run and returns it as Chrome
	// trace_event JSON in the response (also enabled by ?trace=1).
	Trace bool `json:"trace"`
}

// alignResponse is the POST /v1/align reply.
type alignResponse struct {
	Score      int64      `json:"score"`
	CIGAR      string     `json:"cigar,omitempty"`
	Columns    int        `json:"columns"`
	Identity   float64    `json:"identity"`
	RowA       string     `json:"rowA,omitempty"`
	RowB       string     `json:"rowB,omitempty"`
	Local      *localSpan `json:"local,omitempty"`
	CellsSpent int64      `json:"cellsComputed"`
	// Backend and RouteReason report which aligner backend served the run
	// and why it was chosen ("explicit" for a forced algorithm, "local" for
	// an AlgoAuto local run, AlgoAuto's divergence verdict otherwise;
	// docs/BACKENDS.md). RouteIdentity is the q-gram identity estimate that
	// drove a divergence verdict (omitted when no estimate was made — local
	// runs, forced algorithms, short pairs).
	Backend       string  `json:"backend,omitempty"`
	RouteReason   string  `json:"routeReason,omitempty"`
	RouteIdentity float64 `json:"routeIdentity,omitempty"`
	// Trace is the run's Chrome trace_event JSON (load it in
	// chrome://tracing or Perfetto) when the request asked for one.
	Trace json.RawMessage `json:"trace,omitempty"`
}

type localSpan struct {
	StartA int `json:"startA"`
	EndA   int `json:"endA"`
	StartB int `json:"startB"`
	EndB   int `json:"endB"`
}

func (s *server) handleAlign(w http.ResponseWriter, r *http.Request) {
	var req alignRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if r.URL.Query().Get("trace") == "1" {
		req.Trace = true
	}
	rec := fastlsa.NewRecorder(0)
	task, err := s.alignTask(req, rec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	kind := "align"
	if req.Local {
		kind = "align-local"
	}
	resp, err := s.runSync(r, kind, rec, task)
	if err != nil {
		s.writeTaskErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// alignTask validates req up front (so bad input is a 400, not a job
// failure) and returns the engine task that computes the response. rec (when
// non-nil) is the job's flight recorder, threaded into the run so routing
// decisions and solver phases land on the same timeline as the engine lifecycle;
// the Trace, by contrast, is created inside the task, so a retried job's
// trace covers the final attempt rather than accumulating all of them.
func (s *server) alignTask(req alignRequest, rec *fastlsa.Recorder) (func(ctx context.Context) (any, error), error) {
	opt, a, b, err := buildOptions(s.cfg, req)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (any, error) {
		o := opt
		o.Context = ctx
		o.Recorder = rec
		// Journal-backed jobs persist grid-cache checkpoints at block-row
		// boundaries, so a crashed alignment resumes instead of restarting.
		if sink := s.checkpointSink(ctx); sink != nil {
			o.Checkpoint = sink
		}
		// Per-request child of the service-wide counters: the request reads
		// its own work, /v1/stats accumulates everything.
		counters := s.metrics.Derive(nil)
		o.Counters = counters
		var tr *fastlsa.Trace
		if req.Trace {
			tr = fastlsa.NewTrace(0)
			if id := obs.RequestID(ctx); id != "" {
				tr.SetLabel("align " + id)
			}
			o.Trace = tr
		}
		traceJSON := func() json.RawMessage {
			if tr == nil {
				return nil
			}
			b, err := tr.ChromeTrace()
			if err != nil {
				return nil
			}
			return b
		}

		var route fastlsa.RouteInfo
		o.Route = &route
		defer func() {
			if route.Backend != "" {
				s.backendTotal.With(route.Backend, route.Reason).Inc()
			}
		}()
		// A local run reports its alignment over the aligned substrings.
		var al *fastlsa.Alignment
		var span *localSpan
		var score int64
		if req.Local {
			loc, err := fastlsa.AlignLocal(a, b, o)
			if err != nil {
				return nil, err
			}
			if score = loc.Score; score > 0 {
				al = &fastlsa.Alignment{A: a.Slice(loc.StartA, loc.EndA), B: b.Slice(loc.StartB, loc.EndB), Path: loc.Path, Score: score}
				span = &localSpan{StartA: loc.StartA, EndA: loc.EndA, StartB: loc.StartB, EndB: loc.EndB}
			}
		} else {
			res, err := fastlsa.Align(a, b, o)
			if err != nil {
				return nil, err
			}
			al, score = res, res.Score
		}
		resp := alignResponse{
			Score:         score,
			Local:         span,
			CellsSpent:    counters.Cells.Load(),
			Backend:       route.Backend,
			RouteReason:   route.Reason,
			RouteIdentity: route.Identity,
			Trace:         traceJSON(),
		}
		if al != nil {
			st := al.Stats()
			resp.CIGAR, resp.Columns, resp.Identity = al.Path.CIGAR(), st.Columns, st.Identity
			if req.IncludeRows {
				resp.RowA, resp.RowB = al.Rows()
			}
		}
		return resp, nil
	}, nil
}

func buildOptions(cfg serverConfig, req alignRequest) (fastlsa.Options, *fastlsa.Sequence, *fastlsa.Sequence, error) {
	matrixName := req.Matrix
	if matrixName == "" {
		matrixName = "blosum62"
	}
	matrix, err := fastlsa.MatrixByName(matrixName)
	if err != nil {
		return fastlsa.Options{}, nil, nil, err
	}
	alphabet := matrix.Alphabet
	if req.Alphabet != "" {
		if alphabet, err = fastlsa.ParseAlphabet(req.Alphabet); err != nil {
			return fastlsa.Options{}, nil, nil, err
		}
	}
	mode, err := fastlsa.ParseMode(req.Mode)
	if err != nil {
		return fastlsa.Options{}, nil, nil, err
	}
	algo, err := fastlsa.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return fastlsa.Options{}, nil, nil, err
	}
	if len(req.A) > cfg.MaxSequenceLen || len(req.B) > cfg.MaxSequenceLen {
		return fastlsa.Options{}, nil, nil, fmt.Errorf("sequence exceeds the %d-residue limit", cfg.MaxSequenceLen)
	}
	a, err := fastlsa.NewSequence(orDefault(req.AID, "a"), req.A, alphabet)
	if err != nil {
		return fastlsa.Options{}, nil, nil, err
	}
	b, err := fastlsa.NewSequence(orDefault(req.BID, "b"), req.B, alphabet)
	if err != nil {
		return fastlsa.Options{}, nil, nil, err
	}
	workers := req.Workers
	if workers == 0 {
		workers = cfg.DefaultWorkers
	}
	opt := fastlsa.Options{
		Matrix:       matrix,
		Gap:          req.Gap.toGap(),
		Mode:         mode,
		Algorithm:    algo,
		MemoryBudget: req.MemoryBudget,
		Workers:      workers,
	}
	return opt, a, b, nil
}

func orDefault(s, def string) string {
	if strings.TrimSpace(s) == "" {
		return def
	}
	return s
}

// matrixInfo describes one scoring matrix for GET /v1/matrices.
type matrixInfo struct {
	Name     string `json:"name"`
	Alphabet string `json:"alphabet"`
	Min      int    `json:"min"`
	Max      int    `json:"max"`
}

func handleMatrices(w http.ResponseWriter, r *http.Request) {
	names := []string{"table1", "mdm78", "blosum62", "dna", "dna-strict", "dna-iupac"}
	out := make([]matrixInfo, 0, len(names))
	for _, n := range names {
		m, err := fastlsa.MatrixByName(n)
		if err != nil {
			continue
		}
		out = append(out, matrixInfo{Name: n, Alphabet: m.Alphabet.Name, Min: m.Min(), Max: m.Max()})
	}
	writeJSON(w, http.StatusOK, out)
}

// searchRequest is the POST /v1/search body: a query ranked against an
// inline database.
type searchRequest struct {
	Query    string `json:"query"`
	QueryID  string `json:"queryId"`
	Database []struct {
		ID      string `json:"id"`
		Letters string `json:"letters"`
	} `json:"database"`
	Alphabet string  `json:"alphabet"`
	Matrix   string  `json:"matrix"`
	Gap      gapSpec `json:"gap"` // linear only; zero selects -12
	TopK     int     `json:"topK"`
	MinScore int64   `json:"minScore"`
	// FitStats fits Gumbel statistics for the scoring system (adds ~10-100ms)
	// so hits carry E-values; StatsSeed makes the fit reproducible.
	FitStats  bool    `json:"fitStats"`
	StatsSeed int64   `json:"statsSeed"`
	MaxEValue float64 `json:"maxEValue"`
	Workers   int     `json:"workers"`
}

// searchResponse is the POST /v1/search reply.
type searchResponse struct {
	Hits []searchHit `json:"hits"`
	// Stats echoes the fitted parameters when FitStats was set.
	Stats *statsInfo `json:"stats,omitempty"`
	// Funnel reports the filter → verify funnel of a corpus search.
	Funnel *funnelInfo `json:"funnel,omitempty"`
}

// funnelInfo is the seed-filter funnel of one corpus search: how many
// entries the probe scanned, how many survived the filter, and how many the
// exact kernel actually scored.
type funnelInfo struct {
	Scanned     int     `json:"scanned"`
	Candidates  int     `json:"candidates"`
	Examined    int64   `json:"examined"`
	Selectivity float64 `json:"selectivity"`
}

type searchHit struct {
	Index    int     `json:"index"`
	ID       string  `json:"id"`
	Score    int64   `json:"score"`
	EValue   float64 `json:"eValue,omitempty"`
	BitScore float64 `json:"bitScore,omitempty"`
	CIGAR    string  `json:"cigar,omitempty"`
	StartA   int     `json:"startA"`
	EndA     int     `json:"endA"`
	StartB   int     `json:"startB"`
	EndB     int     `json:"endB"`
}

type statsInfo struct {
	Lambda float64 `json:"lambda"`
	K      float64 `json:"k"`
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.allowSearch(w, r) {
		return
	}
	var req searchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if wantsStream(r) {
		if s.corpus == nil {
			writeErr(w, http.StatusUnprocessableEntity, "streaming search requires a loaded corpus (start the server with -corpus)")
			return
		}
		if len(req.Database) != 0 {
			writeErr(w, http.StatusBadRequest, "streaming search runs against the loaded corpus; omit the inline database")
			return
		}
		cq, err := s.corpusQueryFromRequest(req)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.serveSearchStream(w, r, cq)
		return
	}
	rec := fastlsa.NewRecorder(0)
	task, err := s.searchTask(req, rec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.runSync(r, "search", rec, task)
	if err != nil {
		s.writeTaskErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// searchTask validates req and returns the engine task computing the
// response. The statistics fit (when requested) runs inside the task so it
// is cancellable along with the search itself. rec (when non-nil) is the
// job's flight recorder, threaded into the search so its phase spans land on
// the job timeline.
func (s *server) searchTask(req searchRequest, rec *fastlsa.Recorder) (func(ctx context.Context) (any, error), error) {
	cfg := s.cfg
	if len(req.Database) == 0 {
		// No inline database: search the loaded corpus through the
		// seed-filter pipeline (buffered response; GET and ?stream=1 give
		// the NDJSON stream).
		if s.corpus == nil {
			return nil, fmt.Errorf("empty database")
		}
		cq, err := s.corpusQueryFromRequest(req)
		if err != nil {
			return nil, err
		}
		return s.corpusSearchTask(cq, s.metrics.Derive(nil), rec, nil), nil
	}
	matrixName := req.Matrix
	if matrixName == "" {
		matrixName = "blosum62"
	}
	matrix, err := fastlsa.MatrixByName(matrixName)
	if err != nil {
		return nil, err
	}
	alphabet := matrix.Alphabet
	if req.Alphabet != "" {
		if alphabet, err = fastlsa.ParseAlphabet(req.Alphabet); err != nil {
			return nil, err
		}
	}
	if len(req.Query) > cfg.MaxSequenceLen {
		return nil, fmt.Errorf("query exceeds the %d-residue limit", cfg.MaxSequenceLen)
	}
	query, err := fastlsa.NewSequence(orDefault(req.QueryID, "query"), req.Query, alphabet)
	if err != nil {
		return nil, err
	}
	if query.Len() == 0 {
		return nil, fmt.Errorf("empty query")
	}
	db := make([]*fastlsa.Sequence, 0, len(req.Database))
	for i, rs := range req.Database {
		if len(rs.Letters) > cfg.MaxSequenceLen {
			return nil, fmt.Errorf("database entry %d exceeds the %d-residue limit", i, cfg.MaxSequenceLen)
		}
		sq, err := fastlsa.NewSequence(orDefault(rs.ID, fmt.Sprintf("db%d", i)), rs.Letters, alphabet)
		if err != nil {
			return nil, fmt.Errorf("database entry %d: %v", i, err)
		}
		db = append(db, sq)
	}

	gap := fastlsa.Linear(-12)
	if req.Gap != (gapSpec{}) {
		if req.Gap.Open != 0 {
			return nil, fmt.Errorf("search supports linear gaps only")
		}
		gap = fastlsa.Linear(req.Gap.Extend)
	}
	workers := req.Workers
	if workers == 0 {
		workers = cfg.DefaultWorkers
	}
	return func(ctx context.Context) (any, error) {
		opt := fastlsa.SearchOptions{
			Matrix:    matrix,
			Gap:       gap,
			TopK:      req.TopK,
			MinScore:  req.MinScore,
			MaxEValue: req.MaxEValue,
			Workers:   workers,
			Context:   ctx,
			Counters:  s.metrics, // Search derives a per-run child
			Recorder:  rec,
		}
		var resp searchResponse
		if req.FitStats || req.MaxEValue > 0 {
			params, err := fastlsa.EstimateStatistics(matrix, gap, 0, 0, req.StatsSeed)
			if err != nil {
				return nil, fmt.Errorf("statistics fit: %w", err)
			}
			opt.Stats = &params
			resp.Stats = &statsInfo{Lambda: params.Lambda, K: params.K}
		}

		hits, err := fastlsa.Search(query, db, opt)
		if err != nil {
			return nil, err
		}
		resp.Hits = make([]searchHit, 0, len(hits))
		for _, h := range hits {
			sh := searchHit{
				Index: h.Index, ID: h.ID, Score: h.Score,
				EValue: h.EValue, BitScore: h.BitScore,
			}
			if h.Alignment != nil {
				sh.CIGAR = h.Alignment.Path.CIGAR()
				sh.StartA, sh.EndA = h.Alignment.StartA, h.Alignment.EndA
				sh.StartB, sh.EndB = h.Alignment.StartB, h.Alignment.EndB
			}
			resp.Hits = append(resp.Hits, sh)
		}
		return resp, nil
	}, nil
}
