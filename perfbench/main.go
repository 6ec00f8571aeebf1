// Command perfbench is the fastlsa service benchmark. It builds nothing
// itself (run.sh builds the server and this program), generates one seeded
// workload, starts the real fastlsa-server on a loopback port, drives it
// over HTTP, checks every response against references computed before the
// timed region, and prints one JSON result line:
//
//	perfbench -server bin/fastlsa-server -work scratch \
//	    --workload align-divergence --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// seeded requests with spans around each HTTP call and around one
// in-process call into each layer's public function, and reports the
// per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	work     string
	smoke    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", wAlignDivergence, "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same requests")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced replay with per-layer metrics")
	flag.StringVar(&o.server, "server", "", "fastlsa-server binary")
	flag.StringVar(&o.work, "work", "", "scratch directory for corpora, journals, logs and span files")
	flag.BoolVar(&o.smoke, "smoke", false, "seconds-long inputs for the benchmark's own tests")
	flag.Parse()
	o.trace = trace == 1
	// The benchmark shares the host's CPUs with the server it measures; a
	// sparser GC keeps its own collection bursts out of the server's tail.
	debug.SetGCPercent(400)

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (result, error) {
	if o.server == "" || o.work == "" {
		return result{}, fmt.Errorf("-server and -work are required (run through run.sh)")
	}
	if o.seconds < 1 {
		return result{}, fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.work, fmt.Sprintf("%s-%d-", o.workload, o.seed))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	w, err := newWorkload(o.workload, o.seed, o.smoke, dir)
	if err != nil {
		return result{}, err
	}
	if err := w.computeReferences(); err != nil {
		return result{}, err
	}
	ctx := context.Background()
	if o.trace {
		return traceRun(ctx, w, o, dir)
	}
	return e2eRun(ctx, w, o, dir)
}

// setupReps is how many times a run starts the server to take the median
// set-up time (the last start serves the measured run).
func setupReps(w *workload, o options) int {
	switch {
	case o.smoke:
		return 2
	case w.kind == kindSearch:
		return 5
	default:
		return 9
	}
}

// startMedian starts the server reps times, stops all but the last, and
// returns it with every set-up time.
func startMedian(w *workload, o options, dir string, reps int) (*serverProc, []float64, error) {
	var setups []float64
	for k := 0; ; k++ {
		srv, d, err := startServer(o.server, w.serverArgs, filepath.Join(dir, fmt.Sprintf("server-%d.log", k)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if k == reps-1 {
			return srv, setups, nil
		}
		srv.stop()
	}
}

// e2eRun is the untraced measured run behind the end-to-end metrics.
func e2eRun(ctx context.Context, w *workload, o options, dir string) (result, error) {
	prov := hostProvenance()
	steal0 := stealSeconds()
	srv, setups, err := startMedian(w, o, dir, setupReps(w, o))
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	c := newClient(srv.base, w.clients, w)
	defer c.close()

	// Warm-up: one untimed operation per client from the end of the pool.
	for k := 0; k < w.clients; k++ {
		if s := c.op(ctx, w.poolSize()-1-k, "warmup"); !s.ok {
			return result{}, fmt.Errorf("warm-up operation failed: %s", s.err)
		}
	}

	m0, err := scrape(ctx, c.hc, srv.base)
	if err != nil {
		return result{}, err
	}
	cpu0, err := procCPUSeconds(srv.pid())
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var samples []sample
	if w.kind == kindJob {
		samples = openLoop(ctx, c, jobsRate, start, deadline)
	} else {
		samples = closedLoop(ctx, c, w.clients, 0, deadline)
	}
	elapsed := time.Since(start)
	cpu1, err := procCPUSeconds(srv.pid())
	if err != nil {
		return result{}, err
	}
	m1, err := settledScrape(ctx, c, srv.base)
	if err != nil {
		return result{}, err
	}
	hwm, err := procHWMMB(srv.pid())
	if err != nil {
		return result{}, err
	}
	prov.StealS = stealSeconds() - steal0

	var (
		okS                           []sample
		totals, accepts, firsts, late []float64
		cells                         float64
		errs                          []string
		torn                          int
	)
	for _, s := range samples {
		late = append(late, ms(s.late))
		torn += s.tornViews
		if !s.ok {
			errs = append(errs, s.err)
			continue
		}
		okS = append(okS, s)
		totals = append(totals, ms(s.total))
		accepts = append(accepts, ms(s.accept))
		if s.first > 0 && (w.kind != kindSearch || s.hit) {
			firsts = append(firsts, ms(s.first))
		}
		cells += s.cells
	}
	if w.kind == kindJob {
		prov.LateP50Ms = median(late)
		prov.LateMaxMs = quantile(late, 1)
	}
	n := float64(len(okS))
	tailQ := tailQuantile(len(totals))
	res := result{
		Correct:   len(errs) == 0 && len(okS) > 0,
		Attempted: len(samples),
		Failed:    len(errs),
		Metrics: map[string]metric{
			"setup_s":              {median(setups), "s"},
			"latency_p50_ms":       {median(totals), "ms"},
			"latency_tail_ms":      {quantile(totals, tailQ), "ms"},
			"throughput_ops_s":     {n / elapsed.Seconds(), "1/s"},
			"throughput_mcups":     {cells / elapsed.Seconds() / 1e6, "Mcell/s"},
			"first_hit_p50_ms":     {median(firsts), "ms"},
			"accept_p50_ms":        {median(accepts), "ms"},
			"server_cpu_ms_per_op": {(cpu1 - cpu0) * 1000 / max(n, 1), "ms"},
			"peak_rss_mb":          {hwm, "MiB"},
		},
	}
	details := map[string]any{
		"workload":        w.name,
		"seed":            o.seed,
		"samples":         len(samples),
		"completed":       len(okS),
		"elapsed_s":       elapsed.Seconds(),
		"tail_percentile": 100 * tailQ,
		"setups_s":        setups,
		"provenance":      prov,
		"server_counts":   serverCounts(m0, m1, len(okS)),
		"torn_job_views":  torn,
	}
	if len(errs) > 0 {
		details["errors"] = errs[:min(len(errs), 5)]
	}
	printDetails(details, res.Metrics)
	return res, nil
}

// settledScrape waits for asynchronous server work (journal appends from
// the engine's event dispatcher) to stop changing the counters, then returns
// the scrape.
func settledScrape(ctx context.Context, c *client, base string) (metrics, error) {
	prev, err := scrape(ctx, c.hc, base)
	if err != nil {
		return nil, err
	}
	for k := 0; k < 20; k++ {
		time.Sleep(25 * time.Millisecond)
		cur, err := scrape(ctx, c.hc, base)
		if err != nil {
			return nil, err
		}
		if cur.sum("fastlsa_journal_appends_total") == prev.sum("fastlsa_journal_appends_total") &&
			cur.sum("fastlsa_engine_jobs_running") == 0 {
			return cur, nil
		}
		prev = cur
	}
	return prev, nil
}

// serverCounts are the per-operation /metrics deltas a run reports
// alongside its metrics; the traced run compares them between passes.
func serverCounts(m0, m1 metrics, ops int) map[string]float64 {
	per := func(v float64) float64 { return v / float64(max(ops, 1)) }
	served := delta(m0, m1, "fastlsa_backend_total")
	out := map[string]float64{
		"cells_per_op":             per(delta(m0, m1, "fastlsa_align_cells_total")),
		"backend_served_per_op":    per(served),
		"search_scanned_per_op":    per(delta(m0, m1, "fastlsa_search_scanned_total")),
		"search_candidates_per_op": per(delta(m0, m1, "fastlsa_search_candidates_total")),
		"search_examined_per_op":   per(delta(m0, m1, "fastlsa_search_examined_total")),
		"journal_appends_per_job":  per(delta(m0, m1, "fastlsa_journal_appends_total")),
		"journal_bytes_per_job":    per(delta(m0, m1, "fastlsa_journal_bytes_total")),
		"checkpoint_saves_per_job": per(delta(m0, m1, "fastlsa_align_checkpoint_saves_total")),
	}
	if served > 0 {
		out["wfa_share"] = delta(m0, m1, "fastlsa_backend_total", `backend="wfa"`) / served
	}
	return out
}

// printDetails writes the run's context as one JSON line and a readable
// metric table, both before the final result line.
func printDetails(details map[string]any, ms map[string]metric) {
	if b, err := json.Marshal(details); err == nil {
		fmt.Println(string(b))
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
