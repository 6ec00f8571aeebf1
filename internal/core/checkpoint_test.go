package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// memSink is a CheckpointSink over a byte slice, optionally dropping saves
// after a budget (to simulate a crash after N block-rows).
type memSink struct {
	blob  []byte
	saves int
	// stopAfter, when > 0, makes saves beyond that count no-ops: the sink
	// retains the state as of the "crash".
	stopAfter int
	failSaves bool
}

func (s *memSink) Save(blob []byte) error {
	if s.failSaves {
		return errTestSink
	}
	s.saves++
	if s.stopAfter > 0 && s.saves > s.stopAfter {
		return nil
	}
	s.blob = append(s.blob[:0], blob...)
	return nil
}

func (s *memSink) Load() []byte {
	if len(s.blob) == 0 {
		return nil
	}
	return s.blob
}

var errTestSink = &testSinkError{}

type testSinkError struct{}

func (*testSinkError) Error() string { return "sink failed" }

func ckptSeqs(t *testing.T, n int) (*seq.Sequence, *seq.Sequence, *scoring.Matrix, scoring.Gap) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	letters := []byte("ACGT")
	mk := func() []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return b
	}
	a := mk()
	b := append([]byte(nil), a...)
	for i := 0; i < n/10; i++ {
		b[rng.Intn(n)] = letters[rng.Intn(len(letters))]
	}
	return &seq.Sequence{ID: "a", Residues: a}, &seq.Sequence{ID: "b", Residues: b},
		scoring.DNASimple, scoring.Linear(-4)
}

// ckptOpts forces the general case for a small problem: tiny base buffer so
// the root splits, sequential so block-row saves fire.
func ckptOpts(c *stats.Counters, sink CheckpointSink) Options {
	return Options{K: 4, BaseCells: 64, Workers: 1, Counters: c, Checkpoint: sink}
}

// setCheckpointCadence sets ckptEveryCells for one test. Cadence 1 saves
// after every block-row, which small test runs need to checkpoint at all.
func setCheckpointCadence(t *testing.T, cells int64) {
	t.Helper()
	old := ckptEveryCells
	ckptEveryCells = cells
	t.Cleanup(func() { ckptEveryCells = old })
}

// TestCheckpointCadenceSmallRunNeverSaves: at the committed cadence a small
// run with a sink saves nothing and returns the result of a sink-less run.
func TestCheckpointCadenceSmallRunNeverSaves(t *testing.T) {
	a, b, m, gap := ckptSeqs(t, 400)
	want, err := Align(a, b, m, gap, ckptOpts(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sink := &memSink{}
		var c stats.Counters
		opt := ckptOpts(&c, sink)
		opt.Workers, opt.ParallelFillCells = workers, 1
		got, err := Align(a, b, m, gap, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sink.saves != 0 || c.CheckpointSaves.Load() != 0 {
			t.Fatalf("workers %d: %d saves (%d counted), want 0", workers, sink.saves, c.CheckpointSaves.Load())
		}
		if got.Score != want.Score || got.Path.String() != want.Path.String() {
			t.Fatalf("workers %d: result with a sink differs from the sink-less run", workers)
		}
	}
}

// TestCheckpointCadence pins the save count exactly. The 400x400 root at
// K=4 fills block-rows of 40,000 cells, 40,000, 40,000 and 30,000 (the last
// row omits the recursively solved bottom-right block): 150,000 in all. The
// parallel fill has one boundary, its completion.
func TestCheckpointCadence(t *testing.T) {
	a, b, m, gap := ckptSeqs(t, 400)
	for _, tc := range []struct {
		workers  int
		cadence  int64
		saves    int
		lastDone uint32 // completed block-rows in the last snapshot
	}{
		{1, 1, 4, 4},
		{1, 40_000, 3, 3},
		{1, 80_000, 1, 2},
		{1, 150_000, 1, 4},
		{1, 150_001, 0, 0},
		{4, 80_000, 1, 4},
		{4, 150_000, 1, 4},
		{4, 150_001, 0, 0},
	} {
		setCheckpointCadence(t, tc.cadence)
		sink := &memSink{}
		opt := ckptOpts(nil, sink)
		opt.Workers, opt.ParallelFillCells = tc.workers, 1
		if _, err := Align(a, b, m, gap, opt); err != nil {
			t.Fatal(err)
		}
		var done uint32
		if len(sink.blob) > 0 {
			done = binary.LittleEndian.Uint32(sink.blob[32:])
		}
		if sink.saves != tc.saves || done != tc.lastDone {
			t.Errorf("workers %d, cadence %d: %d saves, last at block-row %d; want %d, %d",
				tc.workers, tc.cadence, sink.saves, done, tc.saves, tc.lastDone)
		}
	}
}

// TestCheckpointResumeEquivalence: a run resumed from a mid-fill checkpoint
// must produce the identical score and path as a cold run, and recompute
// strictly fewer cells (the ISSUE's recomputation-factor < 1.0 assertion).
func TestCheckpointResumeEquivalence(t *testing.T) {
	setCheckpointCadence(t, 1)
	a, b, m, gap := ckptSeqs(t, 400)

	var cold stats.Counters
	want, err := Align(a, b, m, gap, ckptOpts(&cold, nil))
	if err != nil {
		t.Fatal(err)
	}

	// "Crash" after two of four block-rows: the sink stops absorbing saves.
	crash := &memSink{stopAfter: 2}
	var first stats.Counters
	if _, err := Align(a, b, m, gap, ckptOpts(&first, crash)); err != nil {
		t.Fatal(err)
	}
	if first.CheckpointSaves.Load() == 0 {
		t.Fatal("no checkpoint saves on a general-case run")
	}
	if first.CheckpointRestores.Load() != 0 {
		t.Fatal("cold run claims a restore")
	}

	// Restart: resume from the retained (2-row) snapshot.
	var resumed stats.Counters
	got, err := Align(a, b, m, gap, ckptOpts(&resumed, crash))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CheckpointRestores.Load() != 1 {
		t.Fatalf("restores = %d, want 1", resumed.CheckpointRestores.Load())
	}
	if got.Score != want.Score {
		t.Fatalf("resumed score %d != cold score %d", got.Score, want.Score)
	}
	if got.Path.String() != want.Path.String() {
		t.Fatal("resumed path differs from cold path")
	}
	coldCells, resumedCells := cold.Cells.Load(), resumed.Cells.Load()
	if resumedCells >= coldCells {
		t.Fatalf("recomputation factor %.2f >= 1.0 (resumed %d cells, cold %d)",
			float64(resumedCells)/float64(coldCells), resumedCells, coldCells)
	}
	t.Logf("recomputation factor %.2f (resumed %d / cold %d cells)",
		float64(resumedCells)/float64(coldCells), resumedCells, coldCells)
}

// TestCheckpointCompleteRestore: resuming from a complete (post-fill)
// snapshot skips the root fill entirely.
func TestCheckpointCompleteRestore(t *testing.T) {
	setCheckpointCadence(t, 1)
	a, b, m, gap := ckptSeqs(t, 400)
	sink := &memSink{}
	var cold stats.Counters
	want, err := Align(a, b, m, gap, ckptOpts(&cold, sink))
	if err != nil {
		t.Fatal(err)
	}
	var resumed stats.Counters
	got, err := Align(a, b, m, gap, ckptOpts(&resumed, sink))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || got.Path.String() != want.Path.String() {
		t.Fatal("complete-restore run differs from cold run")
	}
	if resumed.CheckpointRestores.Load() != 1 {
		t.Fatal("complete snapshot not restored")
	}
	if resumed.Cells.Load() >= cold.Cells.Load() {
		t.Fatalf("complete restore recomputed %d cells >= cold %d",
			resumed.Cells.Load(), cold.Cells.Load())
	}
}

// TestCheckpointMismatchIgnored: a snapshot from different inputs must be
// rejected (cold run), never applied.
func TestCheckpointMismatchIgnored(t *testing.T) {
	setCheckpointCadence(t, 1)
	a, b, m, gap := ckptSeqs(t, 400)
	sink := &memSink{}
	if _, err := Align(a, b, m, gap, ckptOpts(nil, sink)); err != nil {
		t.Fatal(err)
	}
	// Different problem, same sink.
	a2, b2, _, _ := ckptSeqs(t, 401)
	var c stats.Counters
	want, err := Align(a2, b2, m, gap, ckptOpts(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Align(a2, b2, m, gap, ckptOpts(&c, sink))
	if err != nil {
		t.Fatal(err)
	}
	if c.CheckpointRestores.Load() != 0 {
		t.Fatal("foreign snapshot restored")
	}
	if got.Score != want.Score {
		t.Fatal("score drifted")
	}
}

// TestCheckpointCorruptBlobIgnored: truncations and bit flips anywhere in
// the blob must degrade to a cold run with the exact cold result.
func TestCheckpointCorruptBlobIgnored(t *testing.T) {
	setCheckpointCadence(t, 1)
	a, b, m, gap := ckptSeqs(t, 300)
	sink := &memSink{}
	want, err := Align(a, b, m, gap, ckptOpts(nil, sink))
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), sink.blob...)
	for _, mutate := range []func([]byte) []byte{
		func(bl []byte) []byte { return bl[:len(bl)/3] },            // truncated
		func(bl []byte) []byte { bl[8] ^= 0xff; return bl },         // ident flip
		func(bl []byte) []byte { bl[len(bl)-1] ^= 0x01; return bl }, // tail flip
		func(bl []byte) []byte { return bl[:0] },                    // empty
	} {
		blob := mutate(append([]byte(nil), pristine...))
		var c stats.Counters
		got, err := Align(a, b, m, gap, ckptOpts(&c, &memSink{blob: blob}))
		if err != nil {
			t.Fatal(err)
		}
		if c.CheckpointRestores.Load() != 0 {
			t.Fatal("corrupt snapshot was restored")
		}
		if got.Score != want.Score || got.Path.String() != want.Path.String() {
			t.Fatal("corrupt snapshot changed the result")
		}
	}
}

// TestCheckpointSaveFailureIsAdvisory: a sink whose saves fail must not fail
// or change the run.
func TestCheckpointSaveFailureIsAdvisory(t *testing.T) {
	setCheckpointCadence(t, 1)
	a, b, m, gap := ckptSeqs(t, 300)
	want, err := Align(a, b, m, gap, ckptOpts(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	got, err := Align(a, b, m, gap, ckptOpts(&c, &memSink{failSaves: true}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatal("failing sink changed the result")
	}
	if c.CheckpointSaves.Load() != 0 {
		t.Fatal("failed saves were counted")
	}
}

// TestCheckpointAffine: the two-lane (affine) grid round-trips through the
// snapshot too.
func TestCheckpointAffine(t *testing.T) {
	setCheckpointCadence(t, 1)
	a, b, m, _ := ckptSeqs(t, 350)
	gap := scoring.Affine(-10, -2)
	var cold stats.Counters
	want, err := Align(a, b, m, gap, ckptOpts(&cold, nil))
	if err != nil {
		t.Fatal(err)
	}
	crash := &memSink{stopAfter: 1}
	if _, err := Align(a, b, m, gap, ckptOpts(nil, crash)); err != nil {
		t.Fatal(err)
	}
	var resumed stats.Counters
	got, err := Align(a, b, m, gap, ckptOpts(&resumed, crash))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || got.Path.String() != want.Path.String() {
		t.Fatal("affine resumed run differs from cold run")
	}
	if resumed.CheckpointRestores.Load() != 1 || resumed.Cells.Load() >= cold.Cells.Load() {
		t.Fatalf("affine resume did not skip work: restores=%d cells=%d cold=%d",
			resumed.CheckpointRestores.Load(), resumed.Cells.Load(), cold.Cells.Load())
	}
}

// TestCheckpointParallelRun: a parallel run with a sink must still be
// correct; a resumed partial snapshot forces the sequential continuation.
func TestCheckpointParallelRun(t *testing.T) {
	setCheckpointCadence(t, 1)
	a, b, m, gap := ckptSeqs(t, 500)
	opts := func(c *stats.Counters, sink CheckpointSink) Options {
		return Options{K: 4, BaseCells: 64, Workers: 4, ParallelFillCells: 1,
			Counters: c, Checkpoint: sink}
	}
	want, err := Align(a, b, m, gap, opts(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	got, err := Align(a, b, m, gap, opts(nil, sink))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatal("parallel run with sink differs")
	}
	if len(sink.blob) == 0 {
		t.Fatal("parallel fill saved no completion snapshot")
	}
	var resumed stats.Counters
	got2, err := Align(a, b, m, gap, opts(&resumed, sink))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Score != want.Score || resumed.CheckpointRestores.Load() != 1 {
		t.Fatal("parallel completion snapshot did not resume")
	}
}
