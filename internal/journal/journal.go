// Package journal is the durability layer of the repository: a CRC32-framed,
// length-prefixed append-only write-ahead log recording job lifecycle events
// (accepted with the full request payload, started, retried, checkpointed,
// terminal), plus a sibling checkpoint store for grid-cache snapshots
// (internal/core's Options.Checkpoint sink writes through it).
//
// The format is deliberately boring — see docs/DURABILITY.md for the frame
// layout. The properties that matter:
//
//   - Every frame is independently verifiable: a 4-byte little-endian length,
//     a CRC32 (IEEE) of the payload, then the JSON payload. A torn tail —
//     short frame, bad CRC, absurd length — ends replay of that segment at
//     the last valid frame. Replay never panics on hostile bytes
//     (FuzzJournalReplay pins this).
//   - Segments rotate at a size threshold, and Open compacts: live jobs are
//     rewritten into a fresh segment, the most recently finished jobs keep
//     a payload-free tombstone (Options.KeepTerminal) and every other
//     terminal record and checkpoint is dropped, so the journal stays
//     proportional to live work plus a bounded window of history.
//   - Fsync policy is explicit: "always" (sync every append — strongest,
//     slowest), "interval" (background sync, bounded loss window), "never"
//     (rely on the OS; crash-consistent but not power-fail-safe).
//
// Fault sites journal.append, journal.fsync and journal.replay make the
// layer chaos-testable (docs/RESILIENCE.md).
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastlsa/internal/fault"
)

// Record types, in lifecycle order. A job's journal history is an accepted
// record (carrying the full request payload needed to rebuild its task),
// zero or more started/retried/checkpointed records, and at most one
// terminal record. A job whose history lacks a terminal record is re-enqueued
// on the next boot.
const (
	TypeAccepted     = "accepted"
	TypeStarted      = "started"
	TypeRetried      = "retried"
	TypeCheckpointed = "checkpointed"
	TypeTerminal     = "terminal"
)

// Record is one journal entry. Payload is opaque to the journal: the server
// stores the original POST /v1/jobs body there so recovery can rebuild the
// task without the client.
type Record struct {
	Type  string    `json:"type"`
	JobID string    `json:"jobId"`
	At    time.Time `json:"at,omitempty"`
	// Kind is the job kind ("align", "search"), set on accepted.
	Kind string `json:"kind,omitempty"`
	// Priority/TimeoutSec mirror the submission knobs, set on accepted.
	Priority int `json:"priority,omitempty"`
	// IdemKey is the client's Idempotency-Key header, set on accepted.
	IdemKey string `json:"idemKey,omitempty"`
	// Payload is the original request body, set on accepted.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Attempt counts executions started so far, set on started/retried.
	Attempt int `json:"attempt,omitempty"`
	// State is the terminal state name (succeeded/failed/cancelled).
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// Fsync policies.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNever    = "never"
)

// Options tunes a journal. The zero value is usable: 4 MiB segments,
// interval fsync every 100ms, compaction on open.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB).
	SegmentBytes int64
	// Fsync selects the durability/latency trade: FsyncAlways, FsyncInterval
	// (default) or FsyncNever.
	Fsync string
	// FsyncEvery is the FsyncInterval period (default 100ms).
	FsyncEvery time.Duration
	// NoCompact disables the rewrite-on-open compaction (tests only; a
	// production journal without compaction grows without bound).
	NoCompact bool
	// KeepTerminal is how many finished jobs, newest finish first,
	// compaction keeps as tombstones (id, kind, priority, Idempotency-Key,
	// state, error, attempts, accept and finish times; no payload), so they
	// stay answerable across any number of restarts. 0 keeps none.
	KeepTerminal int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	switch o.Fsync {
	case FsyncAlways, FsyncInterval, FsyncNever:
	case "":
		o.Fsync = FsyncInterval
	default:
		o.Fsync = FsyncInterval
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	return o
}

// ValidFsync reports whether s names a known fsync policy ("" selects the
// default).
func ValidFsync(s string) bool {
	switch s {
	case "", FsyncAlways, FsyncInterval, FsyncNever:
		return true
	}
	return false
}

// Stats is a point-in-time snapshot of a journal's counters, exported by the
// server as fastlsa_journal_appends_total / fastlsa_journal_bytes_total.
type Stats struct {
	// Appends counts frames written since open.
	Appends int64
	// Bytes counts frame bytes written since open (length + CRC + payload).
	Bytes int64
	// Truncated counts frames dropped during replay (torn tails, bad CRCs).
	Truncated int64
	// Compacted counts records discarded by the open-time compaction.
	Compacted int64
	// Segments is the current on-disk segment count.
	Segments int
}

// JobRecord is the aggregated replay state of one job: everything the server
// needs to re-enqueue it (or map an Idempotency-Key retry onto it).
type JobRecord struct {
	ID       string
	Kind     string
	Priority int
	IdemKey  string
	Payload  json.RawMessage
	Accepted time.Time
	// Attempts is the highest attempt number journalled (0 = never started).
	Attempts int
	// State is the terminal state name, "" while the job is live.
	State string
	Error string
	// Finished is the terminal record's time (zero while the job is live).
	Finished time.Time
	// HasCheckpoint reports a checkpointed record was seen; the blob itself
	// lives in the checkpoint store (LoadCheckpoint).
	HasCheckpoint bool
	seq           int // accept order
}

// Terminal reports whether the job reached a terminal state before the
// journal was last written.
func (j *JobRecord) Terminal() bool { return j.State != "" }

// ReplaySummary is the outcome of reading a journal directory.
type ReplaySummary struct {
	// Jobs holds every job seen, keyed by ID.
	Jobs map[string]*JobRecord
	// Pending lists the non-terminal jobs in accept order — the re-enqueue
	// worklist after a crash.
	Pending []*JobRecord
	// Records counts valid frames decoded.
	Records int
	// Truncated counts frames dropped (torn tail, bad CRC, bad JSON).
	Truncated int
	// Segments counts segment files read.
	Segments int
}

// Fault-injection points (see internal/fault and docs/RESILIENCE.md).
var (
	// siteAppend strikes before a frame is written: an injected error here
	// rehearses a full disk or I/O error on the append path.
	siteAppend = fault.NewSite("journal.append")
	// siteReplay strikes once per segment during replay.
	siteReplay = fault.NewSite("journal.replay")
	// siteFsync strikes before each sync; a delay here rehearses a slow disk.
	siteFsync = fault.NewSite("journal.fsync")
)

// Frame layout constants.
const (
	frameHeader = 8 // uint32 length + uint32 CRC32(payload), little-endian
	// maxFrame caps a decoded frame length: a corrupt length field must not
	// drive a multi-gigabyte allocation. 16 MiB comfortably exceeds any
	// request payload the server accepts.
	maxFrame = 16 << 20
)

// Journal is an open, writable journal. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	size    int64 // bytes in the current segment
	seq     int   // current segment number
	nseg    int   // total live segments
	closed  bool
	dirty   bool // appended since last sync
	stopSyn chan struct{}
	syncWG  sync.WaitGroup

	appends   atomic.Int64
	bytes     atomic.Int64
	truncated atomic.Int64
	compacted atomic.Int64
}

// Open opens (creating if needed) the journal under dir, replays every
// segment, compacts terminal jobs away, and returns the writable journal
// plus the replay summary. The summary's Pending list is the re-enqueue
// worklist. Corrupt or torn frames are dropped, never fatal.
func Open(dir string, opts Options) (*Journal, *ReplaySummary, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, checkpointDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	sum, err := Replay(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, opts: opts}
	j.truncated.Store(int64(sum.Truncated))
	if err := j.compact(sum); err != nil {
		return nil, nil, err
	}
	if j.f == nil { // compaction skipped: continue the newest segment
		if err := j.continueOrRotate(); err != nil {
			return nil, nil, err
		}
	}
	if opts.Fsync == FsyncInterval {
		j.stopSyn = make(chan struct{})
		j.syncWG.Add(1)
		go j.syncLoop()
	}
	return j, sum, nil
}

// Replay reads every segment under dir (read-only) and aggregates per-job
// state. Missing directory is an empty journal, not an error. Frames after
// a corrupt point in a segment are dropped (longest valid prefix); replay
// continues with the next segment.
func Replay(dir string) (*ReplaySummary, error) {
	sum := &ReplaySummary{Jobs: make(map[string]*JobRecord)}
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return sum, nil
		}
		return nil, err
	}
	for _, seg := range segs {
		if err := siteReplay.Hit(); err != nil {
			return nil, fmt.Errorf("journal: replay %s: %w", filepath.Base(seg), err)
		}
		data, err := os.ReadFile(seg)
		if err != nil {
			return nil, fmt.Errorf("journal: replay: %w", err)
		}
		recs, dropped := decodeSegment(data)
		sum.Segments++
		sum.Truncated += dropped
		for i := range recs {
			sum.apply(&recs[i])
		}
	}
	sort.Slice(sum.Pending, func(a, b int) bool { return sum.Pending[a].seq < sum.Pending[b].seq })
	return sum, nil
}

// apply folds one record into the aggregate. Records for jobs with no
// accepted record (compacted away or interleaved segments) still create an
// entry, so a terminal-only history doesn't resurrect on the next boot.
func (s *ReplaySummary) apply(r *Record) {
	s.Records++
	if r.JobID == "" {
		return
	}
	job := s.Jobs[r.JobID]
	if job == nil {
		job = &JobRecord{ID: r.JobID, seq: s.Records}
		s.Jobs[r.JobID] = job
	}
	// started and retried records carry the attempt count, and so does a
	// compacted tombstone's terminal record.
	if r.Attempt > job.Attempts {
		job.Attempts = r.Attempt
	}
	switch r.Type {
	case TypeAccepted:
		job.Kind = r.Kind
		job.Priority = r.Priority
		job.IdemKey = r.IdemKey
		job.Payload = r.Payload
		job.Accepted = r.At
	case TypeCheckpointed:
		job.HasCheckpoint = true
	case TypeTerminal:
		job.State = r.State
		job.Error = r.Error
		job.Finished = r.At
	}
	// Rebuild Pending lazily: cheaper to filter once at the end, but the
	// list is small and replay is startup-only — recompute terminality here.
	s.Pending = s.Pending[:0]
	for _, j := range s.Jobs {
		if !j.Terminal() && len(j.Payload) > 0 {
			s.Pending = append(s.Pending, j)
		}
	}
}

// decodeSegment decodes frames until the data ends or a frame fails to
// verify; the remainder is dropped and counted. This is the function the
// fuzzer drives: it must terminate and never panic on arbitrary input.
func decodeSegment(data []byte) (recs []Record, dropped int) {
	for len(data) > 0 {
		if len(data) < frameHeader {
			return recs, dropped + 1 // torn header
		}
		n := binary.LittleEndian.Uint32(data[0:4])
		sum := binary.LittleEndian.Uint32(data[4:8])
		if n == 0 || n > maxFrame || int(n) > len(data)-frameHeader {
			return recs, dropped + 1 // absurd or torn length
		}
		payload := data[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, dropped + 1 // bit flip
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, dropped + 1 // valid CRC over garbage JSON
		}
		recs = append(recs, rec)
		data = data[frameHeader+int(n):]
	}
	return recs, dropped
}

// Append writes one record as a framed entry, rotating the segment at the
// size threshold and syncing per the fsync policy.
func (j *Journal) Append(rec Record) error {
	if err := siteAppend.Hit(); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: append on closed journal")
	}
	if j.size+int64(len(frame)) > j.opts.SegmentBytes && j.size > 0 {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	j.appends.Add(1)
	j.bytes.Add(int64(len(frame)))
	j.dirty = true
	if j.opts.Fsync == FsyncAlways {
		return j.syncLocked()
	}
	return nil
}

// Sync forces an fsync of the current segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.f == nil {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := siteFsync.Hit(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.dirty = false
	return nil
}

func (j *Journal) syncLoop() {
	defer j.syncWG.Done()
	t := time.NewTicker(j.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = j.Sync() // a failed background sync retries next tick
		case <-j.stopSyn:
			return
		}
	}
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	stop := j.stopSyn
	f := j.f
	var err error
	if f != nil && j.dirty {
		err = f.Sync()
		j.dirty = false
	}
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		j.syncWG.Wait()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	nseg := j.nseg
	j.mu.Unlock()
	return Stats{
		Appends:   j.appends.Load(),
		Bytes:     j.bytes.Load(),
		Truncated: j.truncated.Load(),
		Compacted: j.compacted.Load(),
		Segments:  nseg,
	}
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// segment file naming: wal-0000000001.log, ordered by number.
func segName(seq int) string { return fmt.Sprintf("wal-%010d.log", seq) }

func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && len(name) == len("wal-0000000001.log") &&
			name[:4] == "wal-" && filepath.Ext(name) == ".log" {
			segs = append(segs, filepath.Join(dir, name))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segSeq(path string) int {
	var n int
	fmt.Sscanf(filepath.Base(path), "wal-%d.log", &n)
	return n
}

// continueOrRotate opens the newest segment for append (or creates the
// first). A segment with a torn tail is truncated to its valid prefix so
// new frames don't land after garbage.
func (j *Journal) continueOrRotate() error {
	segs, err := segments(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.nseg = len(segs)
	if len(segs) == 0 {
		j.seq = 1
		j.nseg = 1
		return j.openSegment()
	}
	last := segs[len(segs)-1]
	j.seq = segSeq(last)
	data, err := os.ReadFile(last)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	valid := validPrefix(data)
	f, err := os.OpenFile(last, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if int64(valid) < int64(len(data)) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	j.f, j.size = f, int64(valid)
	return nil
}

// validPrefix returns the byte length of the longest decodable frame prefix.
func validPrefix(data []byte) int {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			return off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxFrame || int(n) > len(rest)-frameHeader {
			return off
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum || !json.Valid(payload) {
			return off
		}
		off += frameHeader + int(n)
	}
}

func (j *Journal) openSegment() error {
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.seq)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f, j.size = f, 0
	return nil
}

// rotateLocked closes the current segment and starts the next.
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := j.syncLocked(); err != nil {
			return err
		}
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("journal: rotate: %w", err)
		}
	}
	j.seq++
	j.nseg++
	return j.openSegment()
}

// compact rewrites the journal into a fresh segment: each live job's
// accepted record (plus started and checkpointed markers), then a tombstone
// for each of the Options.KeepTerminal most recently finished jobs: an
// accepted record without payload and its terminal record. Old segments
// and terminal jobs' checkpoints are deleted. Skipped when there is nothing
// to reclaim (single segment, no terminal jobs) or when Options.NoCompact
// is set.
func (j *Journal) compact(sum *ReplaySummary) error {
	if j.opts.NoCompact {
		return nil
	}
	var done []*JobRecord
	for _, job := range sum.Jobs {
		if job.Terminal() {
			done = append(done, job)
		}
	}
	if sum.Segments <= 1 && len(done) == 0 {
		return nil
	}
	segs, err := segments(j.dir)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	next := 1
	if len(segs) > 0 {
		next = segSeq(segs[len(segs)-1]) + 1
	}
	j.seq, j.nseg = next, 1
	if err := j.openSegment(); err != nil {
		return err
	}
	var recs []Record
	for _, job := range sum.Pending {
		recs = append(recs, Record{
			Type: TypeAccepted, JobID: job.ID, At: job.Accepted,
			Kind: job.Kind, Priority: job.Priority,
			IdemKey: job.IdemKey, Payload: job.Payload,
		})
		if job.Attempts > 0 {
			recs = append(recs, Record{Type: TypeStarted, JobID: job.ID, Attempt: job.Attempts})
		}
		if job.HasCheckpoint {
			recs = append(recs, Record{Type: TypeCheckpointed, JobID: job.ID})
		}
	}
	// The newest finishes first; ties by accept order, newest first.
	sort.Slice(done, func(a, b int) bool {
		if !done[a].Finished.Equal(done[b].Finished) {
			return done[a].Finished.After(done[b].Finished)
		}
		return done[a].seq > done[b].seq
	})
	for _, job := range done[:min(len(done), max(j.opts.KeepTerminal, 0))] {
		recs = append(recs, Record{
			Type: TypeAccepted, JobID: job.ID, At: job.Accepted,
			Kind: job.Kind, Priority: job.Priority, IdemKey: job.IdemKey,
		}, Record{
			Type: TypeTerminal, JobID: job.ID, At: job.Finished,
			Attempt: job.Attempts, State: job.State, Error: job.Error,
		})
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			return err
		}
	}
	if err := j.Sync(); err != nil {
		return err
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	for _, job := range done {
		j.RemoveCheckpoint(job.ID)
	}
	j.compacted.Add(int64(max(sum.Records-len(recs), 0)))
	return nil
}
