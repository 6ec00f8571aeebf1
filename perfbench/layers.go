package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fastlsa"
	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/index"
	"fastlsa/internal/journal"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/wfa"
)

// spanLog keeps the traced run's spans in memory: in a fastlsa.Trace for the
// Chrome trace file written at the end, and per span name for the layer
// medians. Layer spans have no children, so a span's duration is its self
// time.
type spanLog struct {
	tr   *fastlsa.Trace
	durs map[string][]time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{tr: fastlsa.NewTrace(1 << 16), durs: map[string][]time.Duration{}}
}

// time runs fn inside a span and returns its duration.
func (l *spanLog) time(name, cat string, fn func()) time.Duration {
	start := l.tr.Begin()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.tr.End(name, cat, start, fastlsa.TraceTags{})
	l.durs[name] = append(l.durs[name], d)
	return d
}

func (l *spanLog) p50ms(name string) float64 { return median(durationsMs(l.durs[name])) }

func (l *spanLog) sum(name string) time.Duration {
	var t time.Duration
	for _, d := range l.durs[name] {
		t += d
	}
	return t
}

// replayLen is how many schedule items one replay cycle covers.
func replayLen(w *workload, o options) int {
	n := map[string]int{wAlignDivergence: 14, wAlignProtein: 4, wSearchStream: 16, wJobsDurable: 12}[w.name]
	if o.smoke || n == 0 {
		n = w.poolSize()
	}
	return n
}

// untracedCycles is how many replay cycles pass 1 runs, after a one-operation
// warm-up, before the traced pass.
const untracedCycles = 3

// layerState accumulates the traced pass's in-process measurements.
type layerState struct {
	w     *workload
	spans *spanLog
	pool  *memory.RowPool
	ix    *fastlsa.Index // search-stream: the corpus index

	ops                 int
	overhead, regret    []float64
	routedWFA           int
	coreCells, coreMN   float64
	coreTiles, corePeak int64
	p1, p2              time.Duration
	wfaCells            float64
	fwdCells            float64
	rectCells, tbSteps  float64
	scanned, candidates int
	examined            int64
	errs                []string
}

// counts are the cumulative in-process counts that should repeat exactly
// from one replay cycle to the next.
func (ls *layerState) counts() map[string]float64 {
	return map[string]float64{
		"core_cells":       ls.coreCells,
		"core_fill_tiles":  float64(ls.coreTiles),
		"wfa_cells":        ls.wfaCells,
		"routed_wfa":       float64(ls.routedWFA),
		"index_candidates": float64(ls.candidates),
		"search_examined":  float64(ls.examined),
	}
}

func (ls *layerState) fail(format string, args ...any) {
	ls.errs = append(ls.errs, fmt.Sprintf(format, args...))
}

// request runs one in-process call into each layer the server's work for
// request i reaches, on that request's inputs, after the HTTP call whose
// latency was httpD. A layer the request cannot reach is not called, so its
// metrics read 0.
func (ls *layerState) request(i int, httpD time.Duration) {
	ls.ops++
	if ls.w.kind == kindSearch {
		ls.searchRequest(i, httpD)
		return
	}
	w, sp := ls.w, ls.spans
	p := w.pairs[i%len(w.pairs)]
	a, b, m, gap := p.a, p.b, w.matrix, w.gap

	// Facade: the same work the server did for this request.
	var route fastlsa.RouteInfo
	var al *fastlsa.Alignment
	var err error
	facadeD := sp.time("facade.align", "facade", func() {
		al, err = fastlsa.Align(a, b, fastlsa.Options{Matrix: m, Gap: gap, Workers: w.workers, Route: &route})
	})
	if err != nil || al.Score != p.ref {
		ls.fail("facade align %d disagrees with the reference (%v)", i, err)
	}
	ls.overhead = append(ls.overhead, ms(httpD-facadeD))
	if route.Backend == backend.NameWFA {
		ls.routedWFA++
	}

	// The router estimates identity only for scoring WFA can serve; BLOSUM62
	// exits at incompatible-scoring first.
	sp.time("route.decide", "route", func() { backend.Decide(a, b, m, gap, align.Mode{}, false) })
	compatible := wfa.Compatible(m, a.Alphabet, gap)
	if compatible {
		sp.time("index.estimate", "index", func() { index.EstimateIdentity(a, b, 0) })
	}

	best := ls.core(a, b)
	if compatible {
		var wc fastlsa.Counters
		var werr error
		wfaD := sp.time("wfa.align", "wfa", func() { _, werr = wfa.BiAlign(a, b, m, gap, wfa.Options{Counters: &wc}) })
		if werr != nil {
			ls.fail("wfa align: %v", werr)
		}
		ls.wfaCells += float64(wc.Cells.Load())
		best = min(best, wfaD)
	}
	ls.regret = append(ls.regret, ms(max(0, facadeD-best)))
	ls.kernels(a.Residues, b.Residues)
}

// searchRequest runs the index and search layers for search query i, and,
// for a homolog query, the core and kernel layers on the query against its
// first planted homolog: the pair the server's reconstruct stage aligns with
// FastLSA. An unrelated query reconstructs nothing.
func (ls *layerState) searchRequest(i int, httpD time.Duration) {
	w, sp := ls.w, ls.spans
	q := w.queries[i%len(w.queries)]
	var hits []fastlsa.SearchHit
	var c fastlsa.Counters
	var err error
	facadeD := sp.time("search.query", "search", func() {
		opt := w.searchOptions(w.workers)
		opt.Index, opt.Counters = ls.ix, &c
		hits, err = fastlsa.Search(q.q, w.corpus, opt)
	})
	if err != nil || !sameHits(hitKeys(hits), q.ref) {
		ls.fail("in-process search %d disagrees with the reference (%v)", i, err)
	}
	ls.examined += c.SearchExamined.Load()
	ls.overhead = append(ls.overhead, ms(httpD-facadeD))

	var probe fastlsa.SearchProbe
	sp.time("index.candidates", "index", func() {
		_, probe, err = ls.ix.Candidates(q.q, w.matrix, w.gap, w.minScore)
	})
	if err != nil {
		ls.fail("candidates: %v", err)
	}
	ls.scanned += probe.Scanned
	ls.candidates += probe.Candidates

	if q.partner != nil {
		ls.core(q.q, q.partner)
		ls.kernels(q.q.Residues, q.partner.Residues)
	}
}

// core runs the FastLSA backend with the parameters the router plans for an
// unlimited budget (the defaults), at the request's worker count and at the
// other of P=1/P=2 for the parallel speed-up, and returns the first's time.
// The budget is never binding; it only makes the run account its peak DP
// entries.
func (ls *layerState) core(a, b *fastlsa.Sequence) time.Duration {
	w, sp := ls.w, ls.spans
	fast, _ := backend.Lookup(backend.NameFastLSA)
	run := func(workers int) time.Duration {
		var c fastlsa.Counters
		var err error
		name := fmt.Sprintf("core.align.p%d", workers)
		if workers == w.workers {
			name = "core.align"
		}
		d := sp.time(name, "core", func() {
			_, err = fast.Align(a, b, backend.Request{Matrix: w.matrix, Gap: w.gap, MemoryBudget: 1 << 40, Workers: workers, Counters: &c})
		})
		if err != nil {
			ls.fail("core align: %v", err)
		}
		if workers == w.workers {
			ls.coreCells += float64(c.Cells.Load())
			ls.coreMN += float64(a.Len()) * float64(b.Len())
			ls.coreTiles += c.FillTiles.Load()
			ls.corePeak = max(ls.corePeak, c.PeakGridEntries.Load())
		}
		return d
	}
	own := run(w.workers)
	other := run(3 - w.workers)
	if w.workers == 1 {
		ls.p1, ls.p2 = ls.p1+own, ls.p2+other
	} else {
		ls.p1, ls.p2 = ls.p1+other, ls.p2+own
	}
	return own
}

// kernels times the DP kernel directly on the pair under the workload's own
// gap model (the other model's sweep metric reads 0): a full forward sweep,
// and a base-case-sized stored rectangle with its traceback.
func (ls *layerState) kernels(a, b []byte) {
	w, sp := ls.w, ls.spans
	mod, sweep := kernel.Linear(int64(w.gap.Extend)), "kernel.forward_linear"
	if w.gap.Open != 0 {
		mod, sweep = kernel.Affine(int64(w.gap.Open), int64(w.gap.Extend)), "kernel.forward_affine"
	}
	k := kernel.New(w.matrix, mod, ls.pool, nil)
	top, left, out := k.LeadEdge(len(b), 0), k.LeadEdge(len(a), 0), k.NewEdge(len(b))
	var err error
	sp.time(sweep, "kernel", func() { err = k.Forward(a, b, top, left, out, kernel.Edge{}) })
	if err != nil {
		ls.fail("%s: %v", sweep, err)
	}
	k.PutEdge(top)
	k.PutEdge(left)
	k.PutEdge(out)
	ls.fwdCells += float64(len(a)) * float64(len(b))

	// The FastLSA base case: a stored rectangle of DefaultBaseCells entries.
	rows, cols := min(len(a), 255), min(len(b), 255)
	rt := k.MakeRect((rows + 1) * (cols + 1))
	top, left = k.LeadEdge(cols, 0), k.LeadEdge(rows, 0)
	const reps = 8
	var rerr error
	sp.time("kernel.fillrect", "kernel", func() {
		for r := 0; r < reps && rerr == nil; r++ {
			rerr = k.FillRect(a[:rows], b[:cols], top, left, rt)
		}
	})
	if rerr != nil {
		ls.fail("fillrect: %v", rerr)
	}
	ls.rectCells += reps * float64(rows) * float64(cols)
	steps := 0
	sp.time("kernel.traceback", "kernel", func() {
		for r := 0; r < reps; r++ {
			bld := align.NewBuilder(rows + cols)
			k.Traceback(a[:rows], b[:cols], rt, bld, rows, cols, kernel.StateH)
			steps += bld.Len()
		}
	})
	ls.tbSteps += float64(steps)
	k.PutEdge(top)
	k.PutEdge(left)
}

// journalAppends times Append under each fsync policy in a scratch journal,
// with the workload's own request as the accepted-record payload.
func journalAppends(sp *spanLog, w *workload, dir string, n int) error {
	payload, err := json.Marshal(map[string]any{"type": w.kind})
	if err != nil {
		return err
	}
	if len(w.pairs) > 0 {
		payload = append(append([]byte(`{"type":"align","align":`), w.pairs[0].body...), '}')
	}
	for _, policy := range []string{journal.FsyncAlways, journal.FsyncInterval, journal.FsyncNever} {
		j, _, err := journal.Open(filepath.Join(dir, "journal-"+policy), journal.Options{Fsync: policy})
		if err != nil {
			return err
		}
		for k := 0; k < n && err == nil; k++ {
			rec := journal.Record{Type: journal.TypeAccepted, JobID: fmt.Sprintf("bench-%d", k),
				At: time.Now(), Kind: "align", Payload: payload}
			sp.time("journal.append."+policy, "journal", func() { err = j.Append(rec) })
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("journal %s: %w", policy, err)
		}
	}
	return nil
}

// jobViews lists the server's retained jobs whose request id has prefix.
func jobViews(ctx context.Context, c *client, prefix string) ([]jobView, error) {
	status, data, _, _, err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, "", time.Now())
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs: status %d", status)
	}
	var all []jobView
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, err
	}
	var out []jobView
	for _, v := range all {
		if strings.HasPrefix(v.RequestID, prefix) && v.Started != nil && v.Finished != nil {
			out = append(out, v)
		}
	}
	return out, nil
}

// exactCounts are the per-operation server counts that should repeat
// exactly between two replays of the same requests. Journal bytes per job
// are left out: job ids and timestamps vary in length.
var exactCounts = []string{"cells_per_op", "wfa_share", "search_scanned_per_op", "search_candidates_per_op",
	"search_examined_per_op", "journal_appends_per_job", "checkpoint_saves_per_job"}

// traceRun replays the seeded requests twice on one connection: untraced,
// then traced with one in-process call into each layer after every HTTP
// call. It reports the per-layer metrics, writes the spans as a Chrome trace
// file, and fails if an exact count drifted between replays.
func traceRun(ctx context.Context, w *workload, o options, dir string) (result, error) {
	prov := hostProvenance()
	steal0 := stealSeconds()
	srv, _, err := startServer(o.server, w.serverArgs, filepath.Join(dir, "server-trace.log"))
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	c := newClient(srv.base, 1, w)
	defer c.close()
	sp := newSpanLog()
	ls := &layerState{w: w, spans: sp, pool: memory.NewRowPool()}

	// Index layer set-up, timed once per run.
	if w.kind == kindSearch {
		sp.time("index.build", "index", func() { ls.ix, err = fastlsa.BuildIndex(w.corpus, 0) })
		if err != nil {
			return result{}, err
		}
	}

	n := replayLen(w, o)
	start := time.Now()
	var (
		failed, attempted int
		untraced, traced  []float64
		respBytes         int64
		errs              []string
	)
	record := func(s sample) {
		attempted++
		if !s.ok {
			failed++
			errs = append(errs, s.err)
		}
	}

	// Pass 1: untraced, after the same one-operation warm-up as the
	// end-to-end run.
	if s := c.op(ctx, w.poolSize()-1, "warmup"); !s.ok {
		return result{}, fmt.Errorf("warm-up operation failed: %s", s.err)
	}
	m0, err := scrape(ctx, c.hc, srv.base)
	if err != nil {
		return result{}, err
	}
	for k := 0; k < untracedCycles; k++ {
		for i := 0; i < n; i++ {
			s := c.op(ctx, i, fmt.Sprintf("u-%d", i))
			record(s)
			untraced = append(untraced, ms(s.total))
		}
	}
	m1, err := settledScrape(ctx, c, srv.base)
	if err != nil {
		return result{}, err
	}

	// Pass 2: traced, whole cycles until the run's seconds are used. Each
	// request span holds the HTTP call and then the in-process layer calls.
	// The in-process counts of every cycle must equal the first cycle's.
	var cycleCounts []map[string]float64
	prev := ls.counts()
	cycles := 0
	for cycles == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		for i := 0; i < n; i++ {
			sp.time("request", "bench", func() {
				var s sample
				sp.time("http", "http", func() { s = c.op(ctx, i, fmt.Sprintf("t-%d", i)) })
				record(s)
				traced = append(traced, ms(s.total))
				respBytes += s.bytes
				ls.request(i, s.total)
			})
		}
		cycles++
		cur := ls.counts()
		d := map[string]float64{}
		for k, v := range cur {
			d[k] = v - prev[k]
		}
		cycleCounts = append(cycleCounts, d)
		prev = cur
	}
	m2, err := settledScrape(ctx, c, srv.base)
	if err != nil {
		return result{}, err
	}
	views, err := jobViews(ctx, c, "t-")
	if err != nil {
		return result{}, err
	}
	srv.stop()
	appendN := 32
	if o.smoke {
		appendN = 4
	}
	if err := journalAppends(sp, w, dir, appendN); err != nil {
		return result{}, err
	}
	prov.StealS = stealSeconds() - steal0

	count1 := serverCounts(m0, m1, n*untracedCycles)
	count2 := serverCounts(m1, m2, n*cycles)
	check := map[string]any{}
	var drift []string
	for _, k := range exactCounts {
		exact := count1[k] == count2[k]
		check[k] = map[string]any{"pass1": count1[k], "pass2": count2[k], "exact": exact}
		if !exact {
			drift = append(drift, k)
		}
	}
	for k, v := range cycleCounts[0] {
		exact := true
		for _, c := range cycleCounts[1:] {
			exact = exact && c[k] == v
		}
		check["in_process."+k] = map[string]any{"per_cycle": v, "cycles": cycles, "exact": exact}
		if !exact {
			drift = append(drift, "in_process."+k)
		}
	}
	inProcShare := float64(ls.routedWFA) / float64(max(ls.ops, 1))
	if w.kind != kindSearch && inProcShare != count2["wfa_share"] {
		drift = append(drift, "wfa_share (in-process router disagrees with fastlsa_backend_total)")
	}

	var qwait, runT []float64
	for _, v := range views {
		qwait = append(qwait, ms(v.Started.Sub(v.Submitted)))
		runT = append(runT, ms(v.Finished.Sub(*v.Started)))
	}
	qwCount := delta(m1, m2, "fastlsa_engine_queue_wait_seconds_count")
	qwMean := 0.0
	if qwCount > 0 {
		qwMean = 1000 * delta(m1, m2, "fastlsa_engine_queue_wait_seconds_sum") / qwCount
	}
	passShare := count2["search_candidates_per_op"] / max(count2["search_scanned_per_op"], 1)
	examinedShare := count2["search_examined_per_op"] / max(count2["search_scanned_per_op"], 1)
	mcups := func(cells float64, name string) float64 {
		if t := sp.sum(name).Seconds(); t > 0 {
			return cells / t / 1e6
		}
		return 0
	}
	ops := float64(max(ls.ops, 1))
	metrics := map[string]metric{
		"http.overhead_p50_ms":             {median(ls.overhead), "ms"},
		"http.resp_kb_per_op":              {float64(respBytes) / 1024 / ops, "KiB"},
		"engine.queue_wait_p50_ms":         {median(qwait), "ms"},
		"engine.run_p50_ms":                {median(runT), "ms"},
		"engine.queue_wait_mean_ms":        {qwMean, "ms"},
		"route.decide_p50_us":              {1000 * sp.p50ms("route.decide"), "us"},
		"route.wfa_share":                  {count2["wfa_share"], "share"},
		"route.regret_ms_per_op":           {mean(ls.regret), "ms"},
		"index.estimate_p50_us":            {1000 * sp.p50ms("index.estimate"), "us"},
		"index.build_s":                    {sp.sum("index.build").Seconds(), "s"},
		"index.candidates_p50_us":          {1000 * sp.p50ms("index.candidates"), "us"},
		"index.pass_share":                 {passShare, "share"},
		"search.query_p50_ms":              {sp.p50ms("search.query"), "ms"},
		"search.examined_share":            {examinedShare, "share"},
		"core.align_p50_ms":                {sp.p50ms("core.align"), "ms"},
		"core.cells_per_op":                {ls.coreCells / ops, "count"},
		"core.recompute_factor":            {ls.coreCells / max(ls.coreMN, 1), "ratio"},
		"core.peak_grid_entries":           {float64(ls.corePeak), "count"},
		"core.fill_tiles_per_op":           {float64(ls.coreTiles) / ops, "count"},
		"core.parallel_speedup":            {ls.p1.Seconds() / max(ls.p2.Seconds(), 1e-9), "ratio"},
		"wfa.align_p50_ms":                 {sp.p50ms("wfa.align"), "ms"},
		"wfa.cells_per_op":                 {ls.wfaCells / ops, "count"},
		"kernel.forward_linear_mcups":      {mcups(ls.fwdCells, "kernel.forward_linear"), "Mcell/s"},
		"kernel.forward_affine_mcups":      {mcups(ls.fwdCells, "kernel.forward_affine"), "Mcell/s"},
		"kernel.fillrect_mcups":            {mcups(ls.rectCells, "kernel.fillrect"), "Mcell/s"},
		"kernel.traceback_msteps_s":        {mcups(ls.tbSteps, "kernel.traceback"), "Mstep/s"},
		"journal.append_p50_us.always":     {1000 * sp.p50ms("journal.append.always"), "us"},
		"journal.append_p50_us.interval":   {1000 * sp.p50ms("journal.append.interval"), "us"},
		"journal.append_p50_us.never":      {1000 * sp.p50ms("journal.append.never"), "us"},
		"journal.appends_per_job":          {count2["journal_appends_per_job"], "count"},
		"journal.bytes_per_job":            {count2["journal_bytes_per_job"], "B"},
		"journal.checkpoint_saves_per_job": {count2["checkpoint_saves_per_job"], "count"},
		"obs.trace_overhead_share":         {median(traced)/max(median(untraced), 1e-9) - 1, "share"},
	}

	spanFile := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := writeSpans(sp, spanFile); err != nil {
		return result{}, err
	}
	// Self time per layer: layer spans have no children; a request span's
	// self time is what its HTTP and layer children leave uncovered.
	self := map[string]float64{}
	children := time.Duration(0)
	for name := range sp.durs {
		self[name] = ms(sp.sum(name))
		if name != "request" && name != "index.build" && !strings.HasPrefix(name, "journal.") {
			children += sp.sum(name)
		}
	}
	self["request"] = ms(sp.sum("request") - children)
	errs = append(errs, ls.errs...)
	if len(drift) > 0 {
		errs = append([]string{"exact counts drifted: " + strings.Join(drift, ", ")}, errs...)
	}
	details := map[string]any{
		"workload":      w.name,
		"seed":          o.seed,
		"replay_ops":    n,
		"traced_cycles": cycles,
		"span_file":     spanFile,
		"self_ms":       self,
		"count_check":   check,
		"provenance":    prov,
	}
	if len(errs) > 0 {
		details["errors"] = errs[:min(len(errs), 5)]
	}
	printDetails(details, metrics)
	return result{
		Correct:   len(errs) == 0,
		Attempted: attempted,
		Failed:    failed + len(ls.errs),
		Metrics:   metrics,
	}, nil
}

func writeSpans(sp *spanLog, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
