package main

// Durable job journal wiring: when the server runs with -data-dir, every
// async job submitted through POST /v1/jobs is recorded in an append-only
// WAL (internal/journal) — accepted with its full request payload, then
// started/retried/terminal as the engine commits those transitions — and
// FastLSA grid-cache checkpoints are persisted alongside. On restart the
// journal is replayed: non-terminal jobs are re-enqueued under their
// original ids (marked "recovered"), Idempotency-Key mappings are rebuilt
// so client retries land on the existing job, and checkpointed alignments
// resume past their completed block-rows instead of recomputing from cell
// (0,0). See docs/DURABILITY.md.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"fastlsa"
	"fastlsa/internal/journal"
	"fastlsa/internal/obs"
)

// journalSink binds one job's grid-cache checkpoints to the journal's
// blob store (fastlsa.CheckpointSink).
type journalSink struct {
	j  *journal.Journal
	id string
}

func (s journalSink) Save(blob []byte) error { return s.j.SaveCheckpoint(s.id, blob) }
func (s journalSink) Load() []byte           { return s.j.LoadCheckpoint(s.id) }

// newDurableID mints a journal-scoped job id. Durable jobs carry explicit
// server-minted ids (rather than engine-generated ones) so the id exists —
// and is journalled — before the engine can emit any event for it; the boot
// suffix keeps ids from colliding with those of earlier boots.
func (s *server) newDurableID() string {
	return fmt.Sprintf("job-%s-%d", s.bootID, s.durableSeq.Add(1))
}

// markDurable registers id as journal-backed: the engine event hook appends
// records only for these jobs (synchronous requests and batch units stay
// journal-free).
func (s *server) markDurable(id string) {
	s.durableMu.Lock()
	s.durableIDs[id] = struct{}{}
	s.durableMu.Unlock()
}

func (s *server) isDurable(id string) bool {
	if s.journal == nil {
		return false
	}
	s.durableMu.Lock()
	_, ok := s.durableIDs[id]
	s.durableMu.Unlock()
	return ok
}

// checkpointSink returns the per-job checkpoint sink for the task running
// under ctx, or nil when the job is not journal-backed.
func (s *server) checkpointSink(ctx context.Context) fastlsa.CheckpointSink {
	if s.journal == nil {
		return nil
	}
	id := fastlsa.JobIDFromContext(ctx)
	if id == "" || !s.isDurable(id) {
		return nil
	}
	return journalSink{j: s.journal, id: id}
}

// onJobEvent is the engine's OnJobEvent hook: it appends the lifecycle of
// every journal-backed job, and deletes a job's checkpoint blob once its
// terminal record is appended. Abandoned jobs (cancelled by the shutdown
// drain deadline) deliberately get no terminal record and keep their blob —
// the journal keeps them non-terminal so the next boot re-enqueues and
// resumes them. A crash between the append and the delete leaves a blob that
// compaction on the next open removes.
func (s *server) onJobEvent(ev fastlsa.JobEvent) {
	if !s.isDurable(ev.Job.ID) {
		return
	}
	var rec journal.Record
	switch ev.Type {
	case fastlsa.JobEventStarted:
		rec = journal.Record{Type: journal.TypeStarted, Attempt: ev.Job.Attempts}
	case fastlsa.JobEventRetried:
		rec = journal.Record{Type: journal.TypeRetried, Attempt: ev.Job.Attempts, Error: ev.Job.Err}
	case fastlsa.JobEventFinished:
		if ev.Job.Abandoned {
			if s.logger != nil {
				s.logger.Warn("job abandoned at shutdown; will recover on next boot",
					"job", ev.Job.ID, "kind", ev.Job.Kind, "attempts", ev.Job.Attempts)
			}
			return
		}
		rec = journal.Record{Type: journal.TypeTerminal, State: ev.Job.State.String(), Error: ev.Job.Err}
	default: // accepted is journalled by the submit handler, payload included
		return
	}
	rec.JobID = ev.Job.ID
	rec.At = time.Now()
	if err := s.journal.Append(rec); err != nil {
		if s.logger != nil {
			s.logger.Error("journal append failed", "job", ev.Job.ID, "type", rec.Type, "err", err)
		}
		return
	}
	if rec.Type == journal.TypeTerminal {
		s.journal.RemoveCheckpoint(ev.Job.ID)
	}
}

// journalAccepted records a freshly admitted durable job with its full
// request payload — everything recovery needs to rebuild and resubmit it.
func (s *server) journalAccepted(id, kind, idemKey string, req jobRequest) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return s.journal.Append(journal.Record{
		Type:     journal.TypeAccepted,
		JobID:    id,
		At:       time.Now(),
		Kind:     kind,
		Priority: req.Priority,
		IdemKey:  idemKey,
		Payload:  payload,
	})
}

// idemLookup resolves an Idempotency-Key to its job id ("" when unseen).
func (s *server) idemLookup(key string) string {
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	return s.idemIndex[key]
}

// idemBind maps key to id unless the key is already bound; it returns the
// winning id and whether this call bound it.
func (s *server) idemBind(key, id string) (string, bool) {
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	if prev, ok := s.idemIndex[key]; ok {
		return prev, false
	}
	s.idemIndex[key] = id
	return id, true
}

// journalledView serves a job id known only to the journal: a job that
// reached a terminal state before a crash is not resubmitted, but an
// Idempotency-Key retry must still find it rather than spawn a duplicate.
func (s *server) journalledView(id string) (jobView, bool) {
	s.durableMu.Lock()
	rec, ok := s.journalDone[id]
	s.durableMu.Unlock()
	if !ok {
		return jobView{}, false
	}
	finished := rec.Finished
	return jobView{
		ID:        rec.ID,
		Kind:      rec.Kind,
		Priority:  rec.Priority,
		State:     rec.State,
		Submitted: rec.Accepted,
		Finished:  &finished,
		Attempts:  rec.Attempts,
		Error:     rec.Error,
		// The journal keeps no result payloads.
		ResultEvicted: rec.State == fastlsa.JobSucceeded.String(),
	}, true
}

// recoverJobs replays the journal's aggregate into the engine: every
// non-terminal job is resubmitted under its original id, marked recovered,
// with its pre-crash attempt count; terminal jobs stay queryable through
// the idempotency index. The server reports not-ready ({"phase":
// "recovering"} on /readyz, 503 on POST /v1/jobs) until this returns.
func (s *server) recoverJobs(sum *journal.ReplaySummary) {
	defer s.recovering.Store(false)
	start := s.recoveryTrace.Begin()
	recovered := 0
	defer func() {
		s.recoveryTrace.End(obs.SpanJournalReplay, obs.CatJournal, start,
			obs.Tags{Rows: sum.Records, Cols: recovered})
	}()

	for id, rec := range sum.Jobs {
		if rec.IdemKey != "" {
			s.idemBind(rec.IdemKey, id)
		}
		if rec.Terminal() {
			s.durableMu.Lock()
			s.journalDone[id] = rec
			s.durableMu.Unlock()
		}
	}

	for _, rec := range sum.Pending {
		if err := s.resubmit(rec); err != nil {
			if s.logger != nil {
				s.logger.Error("recovery resubmit failed", "job", rec.ID, "err", err)
			}
			// A job that cannot be rebuilt must not resurrect forever, and
			// stays queryable as failed from this boot on.
			rec.State, rec.Error, rec.Finished = fastlsa.JobFailed.String(), fmt.Sprintf("recovery: %v", err), time.Now()
			_ = s.journal.Append(journal.Record{
				Type: journal.TypeTerminal, JobID: rec.ID, At: rec.Finished,
				State: rec.State, Error: rec.Error,
			})
			s.durableMu.Lock()
			s.journalDone[rec.ID] = rec
			s.durableMu.Unlock()
			continue
		}
		recovered++
	}
	if s.logger != nil {
		s.logger.Info("journal replay complete",
			"records", sum.Records, "segments", sum.Segments, "truncated", sum.Truncated,
			"jobs", len(sum.Jobs), "recovered", recovered)
	}
}

// resubmit re-enqueues one journalled job from its accepted payload.
func (s *server) resubmit(rec *journal.JobRecord) error {
	var req jobRequest
	if err := json.Unmarshal(rec.Payload, &req); err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	recorder := fastlsa.NewRecorder(0)
	task, kind, err := s.buildJobTask(req, recorder)
	if err != nil {
		return err
	}
	extra := ""
	if rec.HasCheckpoint {
		extra = "resumed"
	}
	recorder.Add(fastlsa.RecorderEvent{
		Kind: obs.EvRecover, Detail: kind, Extra: extra, Attempt: rec.Attempts,
	})
	s.markDurable(rec.ID)
	j, err := s.eng.SubmitFunc(kind, task, fastlsa.JobOptions{
		ID:            rec.ID,
		Recovered:     true,
		PriorAttempts: rec.Attempts,
		Accepted:      rec.Accepted,
		Priority:      rec.Priority,
		Timeout:       time.Duration(req.TimeoutSec * float64(time.Second)),
		Retry:         req.Retry.policy(),
		Recorder:      recorder,
	})
	if err != nil {
		return err
	}
	s.watchJob(j)
	return nil
}

// buildJobTask validates a jobRequest and returns the engine task plus its
// kind label — shared by the POST /v1/jobs handler and journal recovery.
func (s *server) buildJobTask(req jobRequest, rec *fastlsa.Recorder) (func(ctx context.Context) (any, error), string, error) {
	switch req.Type {
	case "align":
		if req.Align == nil {
			return nil, "", fmt.Errorf(`"align" body required for type align`)
		}
		kind := "align"
		if req.Align.Local {
			kind = "align-local"
		}
		task, err := s.alignTask(*req.Align, rec)
		return task, kind, err
	case "search":
		if req.Search == nil {
			return nil, "", fmt.Errorf(`"search" body required for type search`)
		}
		task, err := s.searchTask(*req.Search, rec)
		return task, "search", err
	default:
		return nil, "", fmt.Errorf("unknown job type %q (want align or search)", req.Type)
	}
}
