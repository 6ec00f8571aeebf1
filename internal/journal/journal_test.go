package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fastlsa/internal/fault"
)

func accept(t *testing.T, j *Journal, id, kind string, payload string) {
	t.Helper()
	if err := j.Append(Record{
		Type: TypeAccepted, JobID: id, Kind: kind, At: time.Now(),
		Payload: json.RawMessage(payload),
	}); err != nil {
		t.Fatalf("append accepted %s: %v", id, err)
	}
}

func terminal(t *testing.T, j *Journal, id, state string) {
	t.Helper()
	if err := j.Append(Record{Type: TypeTerminal, JobID: id, State: state}); err != nil {
		t.Fatalf("append terminal %s: %v", id, err)
	}
}

// TestRoundTrip: append a lifecycle, close, replay, and the aggregate must
// reflect every record.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, sum, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(sum.Jobs) != 0 {
		t.Fatalf("fresh journal has %d jobs", len(sum.Jobs))
	}
	accept(t, j, "job-1", "align", `{"type":"align"}`)
	if err := j.Append(Record{Type: TypeStarted, JobID: "job-1", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	accept(t, j, "job-2", "search", `{"type":"search"}`)
	terminal(t, j, "job-2", "succeeded")
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sum, err = Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if sum.Records != 4 || sum.Truncated != 0 {
		t.Fatalf("records=%d truncated=%d, want 4/0", sum.Records, sum.Truncated)
	}
	if len(sum.Pending) != 1 || sum.Pending[0].ID != "job-1" {
		t.Fatalf("pending = %+v, want [job-1]", sum.Pending)
	}
	j1 := sum.Jobs["job-1"]
	if j1.Kind != "align" || j1.Attempts != 1 || j1.Terminal() {
		t.Fatalf("job-1 aggregate wrong: %+v", j1)
	}
	if !sum.Jobs["job-2"].Terminal() || sum.Jobs["job-2"].State != "succeeded" {
		t.Fatalf("job-2 aggregate wrong: %+v", sum.Jobs["job-2"])
	}
}

// TestTornTail: a partial final frame (simulated crash mid-write) must be
// dropped on replay and truncated away on reopen so new appends are clean.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	accept(t, j, "job-1", "align", `{}`)
	accept(t, j, "job-2", "align", `{}`)
	j.Close()

	segs, _ := segments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	data, _ := os.ReadFile(segs[0])
	// Chop mid-way through the last frame.
	if err := os.WriteFile(segs[0], data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	sum, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if sum.Records != 1 || sum.Truncated != 1 {
		t.Fatalf("records=%d truncated=%d, want 1/1", sum.Records, sum.Truncated)
	}

	// Reopen (NoCompact so we exercise the truncate-and-continue path) and
	// append; the new record must be readable.
	j, _, err = Open(dir, Options{Fsync: FsyncNever, NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	accept(t, j, "job-3", "align", `{}`)
	j.Close()
	sum, _ = Replay(dir)
	if sum.Records != 2 || sum.Truncated != 0 {
		t.Fatalf("after reopen: records=%d truncated=%d, want 2/0", sum.Records, sum.Truncated)
	}
	if sum.Jobs["job-3"] == nil {
		t.Fatal("job-3 lost after torn-tail reopen")
	}
}

// TestBitFlip: flipping a byte inside a frame drops that frame and the rest
// of the segment, never panics.
func TestBitFlip(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := Open(dir, Options{Fsync: FsyncNever})
	for _, id := range []string{"a", "b", "c"} {
		accept(t, j, id, "align", `{}`)
	}
	j.Close()
	segs, _ := segments(dir)
	data, _ := os.ReadFile(segs[0])
	mid := len(data) / 2
	data[mid] ^= 0x40
	os.WriteFile(segs[0], data, 0o644)
	sum, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Truncated == 0 || sum.Records >= 3 {
		t.Fatalf("bit flip not detected: records=%d truncated=%d", sum.Records, sum.Truncated)
	}
}

// TestRotation: appends beyond the segment threshold rotate; replay reads
// across segments in order.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 256, NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		accept(t, j, "job-"+string(rune('a'+i)), "align", `{"pad":"0123456789012345678901234567890123456789"}`)
	}
	j.Close()
	segs, _ := segments(dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	sum, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 20 || len(sum.Pending) != 20 {
		t.Fatalf("records=%d pending=%d, want 20/20", sum.Records, len(sum.Pending))
	}
}

// TestCompaction: reopening a journal with terminal jobs rewrites it down to
// the live set and deletes terminal checkpoints.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 128})
	accept(t, j, "live", "align", `{"a":1}`)
	for i := 0; i < 10; i++ {
		id := "dead-" + string(rune('0'+i))
		accept(t, j, id, "align", `{}`)
		terminal(t, j, id, "succeeded")
	}
	if err := j.SaveCheckpoint("live", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := j.SaveCheckpoint("dead-0", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, sum, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(sum.Pending) != 1 || sum.Pending[0].ID != "live" {
		t.Fatalf("pending after compaction = %+v", sum.Pending)
	}
	if !sum.Pending[0].HasCheckpoint {
		t.Fatal("live job lost its checkpoint marker")
	}
	if got := j2.LoadCheckpoint("live"); string(got) != "blob" {
		t.Fatalf("live checkpoint = %q", got)
	}
	if got := j2.LoadCheckpoint("dead-0"); got != nil {
		t.Fatal("terminal job's checkpoint survived compaction")
	}
	segs, _ := segments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments after compaction = %d, want 1", len(segs))
	}
	// The compacted journal must replay to the same live set.
	sum2, _ := Replay(dir)
	if len(sum2.Pending) != 1 || sum2.Pending[0].ID != "live" ||
		string(sum2.Pending[0].Payload) != `{"a":1}` {
		t.Fatalf("compacted replay = %+v", sum2.Pending)
	}
	if j2.Stats().Compacted == 0 {
		t.Fatal("Stats.Compacted not counted")
	}
}

// TestCompactionKeepsTombstones: compaction keeps a payload-free tombstone
// for each of the KeepTerminal most recently finished jobs, with every
// field a query or an Idempotency-Key retry reads, and keeps it across
// further reopens; older terminal jobs are dropped.
func TestCompactionKeepsTombstones(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, KeepTerminal: 3}
	j, _, _ := Open(dir, opts)
	accept(t, j, "live", "align", `{"a":1}`)
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("dead-%d", i)
		if err := j.Append(Record{
			Type: TypeAccepted, JobID: id, Kind: "search", Priority: i, IdemKey: "key-" + id,
			At: base.Add(time.Duration(i) * time.Second), Payload: json.RawMessage(`{"b":2}`),
		}); err != nil {
			t.Fatal(err)
		}
		j.Append(Record{Type: TypeStarted, JobID: id, Attempt: 2})
		// Finish times run backwards for the last three, so the newest
		// finishes are dead-0..dead-2 whatever the accept order.
		j.Append(Record{Type: TypeTerminal, JobID: id, At: base.Add(time.Duration(10-i) * time.Minute),
			State: "failed", Error: "boom-" + id})
	}
	j.Close()
	for boot := 1; boot <= 3; boot++ {
		j2, sum, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if len(sum.Pending) != 1 || sum.Pending[0].ID != "live" || string(sum.Pending[0].Payload) != `{"a":1}` {
			t.Fatalf("boot %d: pending = %+v", boot, sum.Pending)
		}
		want := 1 + 3
		if boot == 1 {
			want = 1 + 6 // the first replay still sees every job
		}
		if len(sum.Jobs) != want {
			t.Fatalf("boot %d: %d jobs replayed, want %d", boot, len(sum.Jobs), want)
		}
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("dead-%d", i)
			got, ok := sum.Jobs[id]
			if !ok {
				t.Fatalf("boot %d: tombstone %s missing", boot, id)
			}
			if got.Kind != "search" || got.Priority != i || got.IdemKey != "key-"+id || got.State != "failed" ||
				got.Error != "boom-"+id || got.Attempts != 2 ||
				!got.Accepted.Equal(base.Add(time.Duration(i)*time.Second)) ||
				!got.Finished.Equal(base.Add(time.Duration(10-i)*time.Minute)) {
				t.Fatalf("boot %d: tombstone %+v", boot, got)
			}
			if boot > 1 && got.Payload != nil {
				t.Fatalf("boot %d: tombstone %s kept its payload %s", boot, id, got.Payload)
			}
		}
	}
}

// TestIdempotencyKeyAggregation: the accepted record's IdemKey survives
// replay, which is what maps client retries across a crash.
func TestIdempotencyKeyAggregation(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := Open(dir, Options{Fsync: FsyncNever})
	j.Append(Record{Type: TypeAccepted, JobID: "job-1", IdemKey: "k-42",
		Kind: "align", Payload: json.RawMessage(`{}`)})
	j.Close()
	sum, _ := Replay(dir)
	if sum.Jobs["job-1"].IdemKey != "k-42" {
		t.Fatalf("idemKey = %q", sum.Jobs["job-1"].IdemKey)
	}
}

// TestConcurrentAppend: appends from many goroutines interleave without
// frame corruption (run under -race in CI).
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := Open(dir, Options{Fsync: FsyncInterval, FsyncEvery: time.Millisecond, SegmentBytes: 512})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j.Append(Record{Type: TypeStarted, JobID: "job-1", Attempt: g*25 + i})
			}
		}(g)
	}
	wg.Wait()
	j.Close()
	sum, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 200 || sum.Truncated != 0 {
		t.Fatalf("records=%d truncated=%d, want 200/0", sum.Records, sum.Truncated)
	}
	if st := j.Stats(); st.Appends != 200 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAppendAfterClose fails cleanly (the shutdown path relies on this:
// abandoned jobs' events race the close and must not corrupt anything).
func TestAppendAfterClose(t *testing.T) {
	j, _, _ := Open(t.TempDir(), Options{Fsync: FsyncNever})
	j.Close()
	if err := j.Append(Record{Type: TypeStarted, JobID: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestFaultInjection: an armed journal.append error site must surface as an
// append error and leave the journal readable.
func TestFaultInjection(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := Open(dir, Options{Fsync: FsyncNever})
	accept(t, j, "ok", "align", `{}`)
	if err := fault.Arm("journal.append:error", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	err := j.Append(Record{Type: TypeStarted, JobID: "ok"})
	if err == nil {
		t.Fatal("armed journal.append did not inject")
	}
	fault.Disarm()
	accept(t, j, "ok2", "align", `{}`)
	j.Close()
	sum, _ := Replay(dir)
	if sum.Records != 2 || sum.Truncated != 0 {
		t.Fatalf("journal corrupted by injected append failure: %+v", sum)
	}
}

// TestValidFsync covers the flag-validation helper.
func TestValidFsync(t *testing.T) {
	for _, ok := range []string{"", FsyncAlways, FsyncInterval, FsyncNever} {
		if !ValidFsync(ok) {
			t.Errorf("ValidFsync(%q) = false", ok)
		}
	}
	if ValidFsync("sometimes") {
		t.Error(`ValidFsync("sometimes") = true`)
	}
}

// FuzzJournalReplay drives the segment decoder with arbitrary bytes split
// across two segments: it must terminate, never panic, and — when the input
// is a valid prefix plus garbage — recover exactly the valid prefix.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a real journal: a lifecycle like the chaos test writes.
	seedDir := f.TempDir()
	j, _, err := Open(seedDir, Options{Fsync: FsyncNever, NoCompact: true})
	if err != nil {
		f.Fatal(err)
	}
	accept := func(id string) {
		j.Append(Record{Type: TypeAccepted, JobID: id, Kind: "align",
			Payload: json.RawMessage(`{"type":"align","align":{"a":"ACGT","b":"ACGA"}}`)})
	}
	accept("job-1")
	j.Append(Record{Type: TypeStarted, JobID: "job-1", Attempt: 1})
	accept("job-2")
	j.Append(Record{Type: TypeCheckpointed, JobID: "job-1"})
	j.Append(Record{Type: TypeTerminal, JobID: "job-2", State: "succeeded"})
	j.Close()
	segs, _ := segments(seedDir)
	seed, _ := os.ReadFile(segs[0])
	f.Add(seed, len(seed)/2)
	f.Add(seed[:len(seed)-3], 0)                         // torn tail
	f.Add([]byte{}, 0)                                   // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, 4) // absurd length
	flipped := bytes.Clone(seed)
	if len(flipped) > 20 {
		flipped[20] ^= 1
	}
	f.Add(flipped, 7)

	f.Fuzz(func(t *testing.T, data []byte, split int) {
		// Decode directly (must never panic)…
		recs, _ := decodeSegment(data)
		// …and the valid prefix must re-decode to the same records.
		vp := validPrefix(data)
		again, dropped := decodeSegment(data[:vp])
		if dropped != 0 {
			t.Fatalf("valid prefix of length %d re-decoded with %d drops", vp, dropped)
		}
		if len(again) != len(recs) {
			t.Fatalf("prefix decode %d records, full decode %d", len(again), len(recs))
		}
		// Full replay over two interleaved segment files must not panic and
		// must count every valid frame.
		dir := t.TempDir()
		if split < 0 {
			split = 0
		}
		if split > len(data) {
			split = len(data)
		}
		os.WriteFile(filepath.Join(dir, segName(1)), data[:split], 0o644)
		os.WriteFile(filepath.Join(dir, segName(2)), data[split:], 0o644)
		sum, err := Replay(dir)
		if err != nil {
			t.Fatalf("replay errored on hostile input: %v", err)
		}
		if sum.Records < len(decodeOnly(data[:split])) {
			t.Fatalf("replay lost records from the first segment")
		}
	})
}

func decodeOnly(data []byte) []Record {
	recs, _ := decodeSegment(data)
	return recs
}

// TestFrameEncoding pins the on-disk layout documented in DURABILITY.md:
// little-endian length, CRC32-IEEE of the payload, JSON payload.
func TestFrameEncoding(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := Open(dir, Options{Fsync: FsyncNever})
	accept(t, j, "job-1", "align", `{}`)
	j.Close()
	segs, _ := segments(dir)
	data, _ := os.ReadFile(segs[0])
	if len(data) < frameHeader {
		t.Fatal("frame shorter than header")
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		t.Fatal("CRC mismatch on freshly written frame")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil || rec.JobID != "job-1" {
		t.Fatalf("payload not the record: %v %+v", err, rec)
	}
}
