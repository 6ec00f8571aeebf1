package main

// Crash-recovery acceptance tests for the durable job journal: jobs accepted
// through POST /v1/jobs on a -data-dir server survive a hard crash, restart
// exactly once with identical results, resume checkpointed alignments, and
// honor Idempotency-Key retries across the crash (docs/DURABILITY.md).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastlsa/internal/journal"
)

// durableServer builds a journal-backed server over dir. FsyncAlways keeps
// the tests deterministic: every accepted record is on disk before the 202.
func durableServer(t *testing.T, dir string, engineWorkers int) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServerDurable(serverConfig{
		DefaultWorkers: 1,
		EngineWorkers:  engineWorkers,
		QueueDepth:     64,
		DataDir:        dir,
		JournalFsync:   journal.FsyncAlways,
	})
	if err != nil {
		t.Fatalf("newServerDurable: %v", err)
	}
	h := httptest.NewServer(s)
	t.Cleanup(h.Close)
	return s, h
}

// crashServer simulates a crash: the listener dies and the engine is
// hard-cancelled with no drain (running and queued jobs are abandoned, left
// non-terminal in the journal). The journal close stands in for the OS
// flushing the WAL file — with FsyncAlways every record is already on disk.
func crashServer(t *testing.T, s *server, h *httptest.Server) {
	t.Helper()
	h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.shutdown(ctx)
}

func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, out := doJSON(t, http.MethodPost, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %v", out)
	}
	return id
}

const paperJob = `{"type":"align","align":{"a":"TDVLKAD","b":"TLDKLLKD","matrix":"table1","gap":{"extend":-10}}}`

// blockerN sizes the long alignment that holds the single worker busy across
// a crash: the kernel fills on the order of 1e9 cells/s, so blockerN^2 cells
// keep it running for seconds — ample room to observe a checkpoint, queue
// jobs behind it, and crash mid-fill.
const blockerN = 40_000

// TestCrashRecoveryExactlyOnce is the crash acceptance test: >= 20 jobs
// accepted, some finished before the crash, the rest recovered after a
// restart on the same data dir — every job runs exactly once and reports the
// same score, and the long alignment resumes from its grid-cache checkpoint
// instead of recomputing from cell (0,0).
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := durableServer(t, dir, 1)

	// Phase 1: five fast jobs reach a terminal state before the crash.
	var doneIDs []string
	for i := 0; i < 5; i++ {
		id := submitJob(t, h1.URL, paperJob)
		pollJob(t, h1.URL+"/v1/jobs/"+id, "succeeded", 10*time.Second)
		doneIDs = append(doneIDs, id)
	}

	// Phase 2: a long alignment occupies the single worker; crash only after
	// it has persisted at least one grid-cache checkpoint.
	blockerID := submitJob(t, h1.URL, slowAlignJob(blockerN))
	deadline := time.Now().Add(20 * time.Second)
	for s1.journal.LoadCheckpoint(blockerID) == nil {
		if time.Now().After(deadline) {
			t.Fatal("blocker never persisted a checkpoint")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Phase 3: 18 more jobs queue behind the blocker, then the crash.
	var queuedIDs []string
	for i := 0; i < 18; i++ {
		queuedIDs = append(queuedIDs, submitJob(t, h1.URL, paperJob))
	}
	crashServer(t, s1, h1)
	if ab := s1.eng.Stats().Abandoned; ab != 19 {
		t.Fatalf("abandoned = %d, want 19 (1 running + 18 queued)", ab)
	}

	// Restart on the same directory: recovery is synchronous, so by the time
	// the constructor returns every pre-crash non-terminal job is re-enqueued.
	s2, h2 := durableServer(t, dir, 1)
	if got := s2.eng.Stats().Recovered; got != 19 {
		t.Fatalf("recovered = %d, want 19", got)
	}
	if got := s2.eng.Stats().Submitted; got != 19 {
		t.Fatalf("submitted = %d, want 19 (terminal pre-crash jobs must not re-run)", got)
	}

	// Terminal pre-crash jobs are NOT resubmitted but stay queryable from the
	// journal's aggregate.
	for _, id := range doneIDs {
		if _, err := s2.eng.Job(id); err == nil {
			t.Fatalf("terminal job %s was resubmitted after the crash", id)
		}
		resp, out := doJSON(t, http.MethodGet, h2.URL+"/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK || out["state"] != "succeeded" {
			t.Fatalf("journalled view of %s: status %d %v", id, resp.StatusCode, out)
		}
	}

	// Every recovered job finishes with the known score, exactly once.
	blocker := pollJob(t, h2.URL+"/v1/jobs/"+blockerID, "succeeded", 120*time.Second)
	if rec, _ := blocker["recovered"].(bool); !rec {
		t.Fatalf("blocker not marked recovered: %v", blocker)
	}
	for _, id := range queuedIDs {
		done := pollJob(t, h2.URL+"/v1/jobs/"+id, "succeeded", 30*time.Second)
		result, _ := done["result"].(map[string]any)
		if result == nil || result["score"].(float64) != 82 {
			t.Fatalf("recovered job %s: bad result %v", id, done)
		}
		if rec, _ := done["recovered"].(bool); !rec {
			t.Fatalf("job %s not marked recovered: %v", id, done)
		}
	}

	// Checkpoint resume: the blocker's resumed run computed strictly fewer
	// cells than a cold run of the identical alignment.
	if got := s2.metrics.CheckpointRestores.Load(); got < 1 {
		t.Fatalf("checkpoint restores = %d, want >= 1", got)
	}
	blockerResult, _ := blocker["result"].(map[string]any)
	resumedCells := blockerResult["cellsComputed"].(float64)
	seq := strings.Repeat("ACGT", blockerN/4)
	resp, cold := postJSON(t, h2.URL+"/v1/align", fmt.Sprintf(
		`{"a":%q,"b":%q,"matrix":"dna","gap":{"extend":-4},"workers":1,"algorithm":"fastlsa"}`, seq, seq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold reference align: status %d %v", resp.StatusCode, cold)
	}
	if coldCells := cold["cellsComputed"].(float64); resumedCells >= coldCells {
		t.Fatalf("resumed run computed %v cells, cold run %v — no work was saved", resumedCells, coldCells)
	}
	if blockerResult["score"].(float64) != cold["score"].(float64) {
		t.Fatalf("resumed score %v != cold score %v", blockerResult["score"], cold["score"])
	}

	// The journal and recovery metric families are exposed.
	mresp, err := http.Get(h2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, fam := range []string{
		"fastlsa_journal_appends_total", "fastlsa_journal_bytes_total",
		"fastlsa_jobs_recovered_total 19", "fastlsa_jobs_abandoned_total",
		"fastlsa_recovery_in_progress 0", "fastlsa_align_checkpoint_restores_total",
	} {
		if !strings.Contains(string(body), fam) {
			t.Fatalf("/metrics missing %q", fam)
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.shutdown(dctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestCheckpointRemovedAtTerminal: a job that checkpointed and then
// succeeded leaves no blob behind in the running server. 10,000² cells at
// k = 8 clear the checkpoint cadence once, after the sixth block-row.
func TestCheckpointRemovedAtTerminal(t *testing.T) {
	dir := t.TempDir()
	s, h := durableServer(t, dir, 1)
	id := submitJob(t, h.URL, slowAlignJob(10_000))
	pollJob(t, h.URL+"/v1/jobs/"+id, "succeeded", 120*time.Second)
	if s.metrics.CheckpointSaves.Load() == 0 {
		t.Fatal("the job never checkpointed")
	}
	// The engine publishes the terminal state before its event hook runs.
	deadline := time.Now().Add(10 * time.Second)
	for s.journal.LoadCheckpoint(id) != nil {
		if time.Now().After(deadline) {
			t.Fatal("the succeeded job's checkpoint blob was not removed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("checkpoints/ holds %d files after the job succeeded", len(entries))
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.shutdown(dctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestIdempotencyKeyAcrossCrash: retrying a submission with the same
// Idempotency-Key returns the existing job — before the crash from the
// engine, after the crash from the rebuilt journal index.
func TestIdempotencyKeyAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := durableServer(t, dir, 1)

	post := func(base string) (int, map[string]any) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(paperJob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "idem-test-1")
		resp, out := doRequest(t, req)
		return resp.StatusCode, out
	}

	status, first := post(h1.URL)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status %d %v", status, first)
	}
	id := first["id"].(string)
	pollJob(t, h1.URL+"/v1/jobs/"+id, "succeeded", 10*time.Second)

	// Same key, same server: no duplicate job.
	if status, retry := post(h1.URL); status != http.StatusAccepted || retry["id"] != id {
		t.Fatalf("pre-crash retry: status %d %v, want id %s", status, retry, id)
	}

	crashServer(t, s1, h1)
	s2, h2 := durableServer(t, dir, 1)

	// Same key after the crash: the journalled terminal job answers; nothing
	// is re-enqueued.
	status, retry := post(h2.URL)
	if status != http.StatusAccepted || retry["id"] != id || retry["state"] != "succeeded" {
		t.Fatalf("post-crash retry: status %d %v, want id %s succeeded", status, retry, id)
	}
	if got := s2.eng.Stats().Submitted; got != 0 {
		t.Fatalf("post-crash retry enqueued %d jobs, want 0", got)
	}
}

// TestCancelDuringRecovery: a job that was replayed from the journal but has
// not started yet can be cancelled like any other; the cancellation is
// idempotent, reaches the journal as a terminal record, and the job stays
// dead across the next restart.
func TestCancelDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := durableServer(t, dir, 1)

	blockerID := submitJob(t, h1.URL, slowAlignJob(blockerN))
	pollJob(t, h1.URL+"/v1/jobs/"+blockerID, "running", 10*time.Second)
	victimID := submitJob(t, h1.URL, paperJob)
	crashServer(t, s1, h1)

	// After the restart the blocker occupies the single worker again, so the
	// victim is a recovered-but-not-started job.
	s2, h2 := durableServer(t, dir, 1)
	resp, out := doJSON(t, http.MethodDelete, h2.URL+"/v1/jobs/"+victimID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %v", resp.StatusCode, out)
	}
	pollJob(t, h2.URL+"/v1/jobs/"+victimID, "cancelled", 10*time.Second)
	// Idempotent: a second DELETE is a no-op, not an error.
	if resp, out := doJSON(t, http.MethodDelete, h2.URL+"/v1/jobs/"+victimID, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat cancel status %d: %v", resp.StatusCode, out)
	}
	if resp, _ := doJSON(t, http.MethodDelete, h2.URL+"/v1/jobs/"+blockerID, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("blocker cancel status %d", resp.StatusCode)
	}
	pollJob(t, h2.URL+"/v1/jobs/"+blockerID, "cancelled", 10*time.Second)
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.shutdown(dctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Third boot: both cancellations were journalled as terminal, so nothing
	// resurrects.
	s3, h3 := durableServer(t, dir, 1)
	if got := s3.eng.Stats().Recovered; got != 0 {
		t.Fatalf("recovered = %d after clean cancels, want 0", got)
	}
	resp, out = doJSON(t, http.MethodGet, h3.URL+"/v1/jobs/"+victimID, "")
	if resp.StatusCode != http.StatusOK || out["state"] != "cancelled" {
		t.Fatalf("victim after third boot: status %d %v, want cancelled", resp.StatusCode, out)
	}
}

// TestReadyzRecovering: while replay is marked in progress the readiness
// probe reports {"phase":"recovering"}, submissions are rejected 503, and
// the fastlsa_recovery_in_progress gauge reads 1.
func TestReadyzRecovering(t *testing.T) {
	s, h := durableServer(t, t.TempDir(), 1)
	s.recovering.Store(true)

	resp, out := doJSON(t, http.MethodGet, h.URL+"/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable || out["phase"] != "recovering" {
		t.Fatalf("readyz during recovery: status %d %v", resp.StatusCode, out)
	}
	resp, out = doJSON(t, http.MethodPost, h.URL+"/v1/jobs", paperJob)
	if resp.StatusCode != http.StatusServiceUnavailable || out["phase"] != "recovering" {
		t.Fatalf("submit during recovery: status %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("recovering 503 carries no Retry-After")
	}
	mresp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "fastlsa_recovery_in_progress 1") {
		t.Fatal("gauge not 1 during recovery")
	}

	s.recovering.Store(false)
	if resp, out := doJSON(t, http.MethodGet, h.URL+"/readyz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: status %d %v", resp.StatusCode, out)
	}
}

// TestIdempotencyKeyRequiresJournal: the header is rejected up front on an
// in-memory server rather than silently ignored.
func TestIdempotencyKeyRequiresJournal(t *testing.T) {
	srv := testServer(t)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(paperJob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "k")
	resp, out := doRequest(t, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
}

// TestJournalPersistsAcrossCleanRestart: a graceful shutdown drains queued
// jobs to completion, so the next boot recovers nothing but still serves the
// finished jobs' journalled views.
func TestJournalPersistsAcrossCleanRestart(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := durableServer(t, dir, 1)
	id := submitJob(t, h1.URL, paperJob)
	pollJob(t, h1.URL+"/v1/jobs/"+id, "succeeded", 10*time.Second)
	h1.Close()
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.shutdown(dctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	s2, h2 := durableServer(t, dir, 1)
	if got := s2.eng.Stats().Recovered; got != 0 {
		t.Fatalf("recovered = %d after clean shutdown, want 0", got)
	}
	resp, out := doJSON(t, http.MethodGet, h2.URL+"/v1/jobs/"+id, "")
	if resp.StatusCode != http.StatusOK || out["state"] != "succeeded" {
		t.Fatalf("journalled view: status %d %v", resp.StatusCode, out)
	}
	// The journal keeps no payloads, so the view says the result is gone.
	if out["result"] != nil || out["resultEvicted"] != true {
		t.Fatalf("journalled view %v, want resultEvicted and no result", out)
	}
	// The accepted and terminal records carry the job's submission and
	// finish times.
	submitted, serr := time.Parse(time.RFC3339Nano, fmt.Sprint(out["submitted"]))
	finished, ferr := time.Parse(time.RFC3339Nano, fmt.Sprint(out["finished"]))
	if serr != nil || ferr != nil || submitted.IsZero() || finished.Before(submitted) {
		t.Fatalf("journalled view submitted %v, finished %v, want both set in order", out["submitted"], out["finished"])
	}
}

// TestUnrebuildableJobFailsOnRecoveringBoot: a pending job whose journalled
// request no server can rebuild (here an "msa" job, a type this server does
// not serve) is failed by recovery and served as failed on the same boot,
// by id and by its Idempotency-Key. It stays failed across the next
// restart and is never resubmitted.
func TestUnrebuildableJobFailsOnRecoveringBoot(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	accepted := time.Now().Add(-time.Minute)
	const id, key = "job-msa-1", "idem-msa-1"
	if err := j.Append(journal.Record{
		Type: journal.TypeAccepted, JobID: id, At: accepted, Kind: "msa", IdemKey: key,
		Payload: json.RawMessage(`{"type":"msa","msa":{"sequences":[{"letters":"ACGT"},{"letters":"ACGA"}]}}`),
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(s *server, base, boot string) {
		t.Helper()
		resp, out := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK || out["state"] != "failed" || out["kind"] != "msa" {
			t.Fatalf("%s boot: GET status %d %v, want 200 failed msa", boot, resp.StatusCode, out)
		}
		if e, _ := out["error"].(string); !strings.HasPrefix(e, "recovery: ") {
			t.Fatalf("%s boot: error %q, want the recovery failure", boot, e)
		}
		submitted, serr := time.Parse(time.RFC3339Nano, fmt.Sprint(out["submitted"]))
		finished, ferr := time.Parse(time.RFC3339Nano, fmt.Sprint(out["finished"]))
		if serr != nil || ferr != nil || !submitted.Equal(accepted) || finished.Before(submitted) {
			t.Fatalf("%s boot: submitted %v, finished %v, want the accept time and a later finish", boot, out["submitted"], out["finished"])
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(paperJob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, out = doRequest(t, req)
		if resp.StatusCode != http.StatusAccepted || out["id"] != id || out["state"] != "failed" {
			t.Fatalf("%s boot: Idempotency-Key retry status %d %v, want id %s failed", boot, resp.StatusCode, out, id)
		}
		if st := s.eng.Stats(); st.Submitted != 0 || st.Recovered != 0 {
			t.Fatalf("%s boot: engine submitted %d, recovered %d, want 0 and 0", boot, st.Submitted, st.Recovered)
		}
	}

	s1, h1 := durableServer(t, dir, 1)
	check(s1, h1.URL, "recovering")
	h1.Close()
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.shutdown(dctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	s2, h2 := durableServer(t, dir, 1)
	check(s2, h2.URL, "next")
}

// TestRecoveredJobKeepsAcceptTime: a pending job recovered from the journal
// reports the client's accept time as its submitted time, not the
// recovering boot's resubmit time.
func TestRecoveredJobKeepsAcceptTime(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	accepted := time.Now().Add(-time.Minute).Round(time.Millisecond)
	const id = "job-pending-1"
	if err := j.Append(journal.Record{
		Type: journal.TypeAccepted, JobID: id, At: accepted, Kind: "align",
		Payload: json.RawMessage(paperJob),
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, h := durableServer(t, dir, 1)
	out := pollJob(t, h.URL+"/v1/jobs/"+id, "succeeded", 10*time.Second)
	if out["recovered"] != true {
		t.Fatalf("view %v, want a recovered job", out)
	}
	submitted, serr := time.Parse(time.RFC3339Nano, fmt.Sprint(out["submitted"]))
	started, perr := time.Parse(time.RFC3339Nano, fmt.Sprint(out["started"]))
	if serr != nil || perr != nil || !submitted.Equal(accepted) || started.Sub(submitted) < time.Minute {
		t.Fatalf("submitted %v, started %v, want the accept time %v and a start a minute later",
			out["submitted"], out["started"], accepted.Format(time.RFC3339Nano))
	}
}

func doRequest(t *testing.T, req *http.Request) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := decodeBody(resp, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, out
}

func decodeBody(resp *http.Response, out *map[string]any) error {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return nil
	}
	return json.Unmarshal(b, out)
}
