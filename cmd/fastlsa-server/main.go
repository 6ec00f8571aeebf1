// Command fastlsa-server exposes the fastlsa library as a small JSON HTTP
// service, the deployment surface an adopting team typically wants.
//
// Endpoints:
//
//	GET    /healthz        liveness probe (200 for the process lifetime)
//	GET    /readyz         readiness probe (503 once shutdown drain begins)
//	GET    /v1/matrices    available scoring matrices
//	POST   /v1/align       pairwise alignment (global, ends-free, or local)
//	POST   /v1/search      homology search with optional E-value statistics
//	GET    /v1/search      streaming corpus search (NDJSON; needs -corpus)
//	POST   /v1/jobs        submit an async job (align or search)
//	GET    /v1/jobs        list retained jobs, newest first
//	GET    /v1/jobs/{id}   poll one job (result included once succeeded)
//	DELETE /v1/jobs/{id}   cancel a job
//	POST   /v1/batch       many pairwise alignments, admitted atomically
//	GET    /v1/stats       engine counters (queue, workers, outcomes)
//	GET    /metrics        Prometheus text-format metrics
//	GET    /v1/jobs/{id}/events  one job's flight-recorder timeline
//	GET    /v1/debug/incidents   recent 5xx responses and failed jobs
//
// All alignment work — synchronous or async — runs through a bounded job
// engine: a saturated queue rejects with 503 rather than queueing without
// bound, and cancelled or abandoned requests stop consuming CPU promptly.
// Overload 503s carry a Retry-After header and retryAfterMs JSON hint, and a
// breaker sheds synchronous requests while the p95 queue wait is over
// -breaker-wait (async submissions still queue). Jobs and batches accept a
// "retry" policy that re-runs attempts lost to transient faults. On
// SIGINT/SIGTERM /readyz starts failing, the server stops accepting work,
// drains in-flight jobs until the drain deadline, then cancels the remainder
// and exits.
//
// Durability: -data-dir enables the durable job journal — every async job is
// recorded in a CRC-framed append-only WAL (accepted with its full request,
// then started/retried/terminal), FastLSA alignments persist grid-cache
// checkpoints at block-row boundaries, and on restart non-terminal jobs are
// re-enqueued (resuming from their checkpoints) while /readyz reports
// {"phase":"recovering"}. An Idempotency-Key header on POST /v1/jobs makes
// submission retries land on the existing job, across crashes included.
// -journal-fsync picks the durability/latency trade. See docs/DURABILITY.md.
//
// Corpus search: -corpus loads a FASTA database at startup and builds a
// q-gram seed-filter index over it once (see docs/SEARCH.md). GET /v1/search
// (and POST bodies with no inline database) then search the corpus through
// the lossless filter → verify → reconstruct pipeline; GET and ?stream=1
// responses stream NDJSON hits as they are found. -search-rate arms
// per-client token-bucket rate limiting on /v1/search (429 + Retry-After).
//
// Resilience rehearsal: FASTLSA_FAULTS arms the fault-injection harness
// (internal/fault) at startup — e.g.
// FASTLSA_FAULTS="core.fillTile:panic:0.01" — see docs/RESILIENCE.md.
//
// Observability: every request is logged as one structured (JSON) record
// with an X-Request-ID that is honored when the client sent one, echoed in
// the response, and attached to the engine job it spawns. /metrics exposes
// per-route latency histograms, engine queue gauges, service-wide alignment
// counters, per-(backend, phase) wall seconds and process runtime gauges;
// docs/OBSERVABILITY.md gives the burn-rate recording rules over them. POST
// /v1/align?trace=1 (or "trace": true in the body) returns a Chrome
// trace_event JSON profile of the run. Every job carries a bounded flight
// recorder (GET /v1/jobs/{id}/events); recent 5xx responses and failed jobs
// land in the incident ring at /v1/debug/incidents. -prof-labels (on by
// default) attaches pprof labels (job_id, backend, phase) to alignment work
// so CPU profiles attribute samples per solver phase. -debug-addr serves
// net/http/pprof and expvar on a separate listener, so profiling stays off
// the public port. See docs/OBSERVABILITY.md.
//
// Example:
//
//	fastlsa-server -addr :8080 &
//	curl -s localhost:8080/v1/align -d '{
//	    "a": "TDVLKAD", "b": "TLDKLLKD",
//	    "matrix": "table1", "gap": {"extend": -10},
//	    "includeRows": true
//	}'
//	# -> {"score":82, "cigar":"1M1D1M1D3M1I1M", ...}
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on the debug listener
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the debug listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastlsa"
	"fastlsa/internal/fault"
	"fastlsa/internal/journal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxLen     = flag.Int("max-len", 1_000_000, "maximum residues per sequence")
		maxBody    = flag.Int64("max-body", 64<<20, "maximum request body bytes")
		workers    = flag.Int("workers", 0, "default parallel workers per request (0 = all CPUs)")
		timeoutSec = flag.Int("timeout", 300, "per-request timeout in seconds")
		engWorkers = flag.Int("engine-workers", 0, "job engine worker pool size (0 = all CPUs)")
		queueDepth = flag.Int("queue-depth", 0, "job queue bound; full queues reject with 503 (0 = 4x workers)")
		maxResults = flag.Int("max-results", 0, "retained jobs that keep their full result payload (0 = 64)")
		maxBatch   = flag.Int("max-batch", 64, "maximum pairs per batch request")
		brkWait    = flag.Duration("breaker-wait", 5*time.Second, "p95 queue wait that trips the overload breaker (negative disables)")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker sheds before re-measuring")
		drainSec   = flag.Int("drain", 30, "shutdown drain deadline in seconds")
		debugAddr  = flag.String("debug-addr", "", "listen address for pprof and expvar (empty = disabled)")
		quiet      = flag.Bool("quiet", false, "disable per-request access logs")
		profLabels = flag.Bool("prof-labels", true, "attach pprof labels (job_id, backend, phase) to alignment work")

		dataDir      = flag.String("data-dir", "", "directory for the durable job journal; async jobs survive crashes and restarts (empty = in-memory only)")
		journalFsync = flag.String("journal-fsync", "interval", "journal fsync policy: always, interval or never")

		corpusPath  = flag.String("corpus", "", "FASTA corpus to index at startup for GET /v1/search")
		corpusAlpha = flag.String("corpus-alphabet", "dna", "corpus alphabet (dna or protein)")
		corpusQ     = flag.Int("corpus-q", 0, "q-gram length of the corpus index (0 = per-alphabet default)")
		searchRate  = flag.Float64("search-rate", 0, "per-client /v1/search requests per second (0 = unlimited)")
		searchBurst = flag.Int("search-burst", 10, "per-client /v1/search burst size")
	)
	flag.Parse()

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	// Arm the fault-injection harness when FASTLSA_FAULTS is set, so chaos
	// rehearsals run against the real binary. Disarmed (the default) every
	// injection point is a zero-allocation no-op.
	if armed, err := fault.ArmFromEnv(os.Getenv); err != nil {
		log.Fatalf("%s: %v", fault.EnvSpec, err)
	} else if armed {
		log.Printf("fault injection armed: %s=%q (sites: %v)", fault.EnvSpec, fault.Armed(), fault.Sites())
	}

	var corpus *fastlsa.Corpus
	if *corpusPath != "" {
		alphabet, err := fastlsa.ParseAlphabet(*corpusAlpha)
		if err != nil {
			log.Fatalf("-corpus-alphabet: %v", err)
		}
		corpus, err = fastlsa.LoadCorpus(*corpusPath, alphabet, *corpusQ)
		if err != nil {
			log.Fatalf("-corpus: %v", err)
		}
		ix := corpus.Index
		log.Printf("corpus %s: %d sequences (%d residues), q=%d index with %d grams / %d postings (load %s, build %s)",
			*corpusPath, corpus.Len(), ix.Residues(), ix.Q(), ix.DistinctGrams(), ix.Postings(),
			corpus.LoadDur.Round(time.Millisecond), corpus.BuildDur.Round(time.Millisecond))
	}

	if !journal.ValidFsync(*journalFsync) {
		log.Fatalf("-journal-fsync: unknown policy %q (want always, interval or never)", *journalFsync)
	}

	timeout := time.Duration(*timeoutSec) * time.Second
	app, err := newServerDurable(serverConfig{
		MaxSequenceLen:     *maxLen,
		MaxBodyBytes:       *maxBody,
		DefaultWorkers:     *workers,
		EngineWorkers:      *engWorkers,
		QueueDepth:         *queueDepth,
		MaxRetainedResults: *maxResults,
		MaxBatch:           *maxBatch,
		BreakerWait:        *brkWait,
		BreakerCooldown:    *brkCool,
		Logger:             logger,
		Corpus:             corpus,
		SearchRate:         *searchRate,
		SearchBurst:        *searchBurst,
		StreamTimeout:      timeout,
		ProfLabels:         *profLabels,
		DataDir:            *dataDir,
		JournalFsync:       *journalFsync,
	})
	if err != nil {
		log.Fatalf("startup: %v", err)
	}
	// The TimeoutHandler buffers whole responses (it never exposes
	// http.Flusher), which would defeat per-hit flushing — streaming search
	// requests route around it and carry their deadline on the request
	// context instead (serverConfig.StreamTimeout).
	buffered := http.TimeoutHandler(app, timeout, `{"error":"request timed out"}`)
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/search" && wantsStream(r) {
			app.ServeHTTP(w, r)
			return
		}
		buffered.ServeHTTP(w, r)
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("fastlsa-server listening on %s\n", *addr)

	// Profiling/introspection stays on its own listener: net/http/pprof and
	// expvar register on http.DefaultServeMux at import, so serving the
	// default mux exposes /debug/pprof/* and /debug/vars without putting
	// them on the public port.
	if *debugAddr != "" {
		go func() {
			log.Printf("debug listener (pprof, expvar) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: fail /readyz first so load balancers stop routing
	// here (while /healthz stays 200 — the process is alive and draining),
	// then stop accepting connections, let in-flight requests and queued jobs
	// finish until the drain deadline, and cancel the rest.
	stop()
	app.beginDrain()
	drain := time.Duration(*drainSec) * time.Second
	log.Printf("shutting down (drain deadline %s)", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := app.shutdown(dctx); err != nil {
		log.Printf("engine shutdown: cancelled remaining jobs: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Printf("bye")
}
