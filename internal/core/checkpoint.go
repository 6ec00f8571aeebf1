package core

// Grid-cache checkpointing: the durability hook behind docs/DURABILITY.md's
// checkpoint/resume walkthrough. FastLSA's grid cache is the natural
// checkpoint unit — it is the paper's whole point that O(k·(m+n)) lines
// suffice to recover the optimal path — and the sequential Fill Cache writes
// it at predictable block-row boundaries. An Options.Checkpoint sink
// receives a serialized snapshot of the root grid at a completed block-row
// once the fill has computed ckptEveryCells cells since the previous save
// (the parallel fill, which has no block-row boundaries, saves once at
// completion on the same rule); a recovered run loads the snapshot, seeds
// the cache, and continues the fill at the first unfinished block-row
// instead of cell (0,0).
//
// The cadence exists because the grid is cheap to rebuild: each save
// rewrites every grid line, so on a fill shorter than the cadence a save
// costs more than a resumed run could skip. Such runs never save, and a
// recovered job re-runs them cold.
//
// Only the root general case checkpoints: it holds the k²-1 block fill that
// dominates a cold run, and one blob per job keeps the store trivial.
// Partial restores continue sequentially (the wavefront fill has no notion
// of "resume at block-row u"); complete restores skip the fill and go
// straight to the recursive path walk, which re-derives the subproblem
// solutions exactly as an uninterrupted run would.

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"

	"fastlsa/internal/stats"
)

// CheckpointSink persists grid-cache snapshots for one run and supplies the
// previous snapshot on resume. Implementations must tolerate concurrent runs
// only if they share sinks (the server binds one sink per job).
type CheckpointSink interface {
	// Save persists a snapshot. Errors are advisory: checkpointing is an
	// optimisation, a failed save must not fail the alignment.
	Save(blob []byte) error
	// Load returns the most recent snapshot, or nil when none exists.
	Load() []byte
}

// Checkpoint blob layout (little-endian):
//
//	magic   uint32  "FLCK"
//	version uint32  1
//	ident   uint64  FNV-1a over (a, b, gap, matrix name, k, lanes)
//	k       uint32
//	rows    uint32  root subproblem cell rows (m)
//	cols    uint32  root subproblem cell cols (n)
//	lanes   uint32  1 linear, 2 affine
//	done    uint32  completed block-rows (k = fill complete)
//	rs      (k+1) × int64
//	cs      (k+1) × int64
//	rows lines   k × lanes × (cols+1) × int64
//	cols lines   k × lanes × (rows+1) × int64
//	crc     uint32  CRC32 (IEEE) of everything above
//
// Any mismatch — wrong magic, version, identity, geometry, a short blob, or
// a CRC failure over the line payload — makes the restore a no-op: the run
// falls back to a cold fill. A checkpoint can make a run faster, never wrong.
const (
	ckptMagic   = 0x464c434b // "FLCK"
	ckptVersion = 1
)

// ckptEveryCells is the checkpoint cadence: the fill cells that must be
// computed since the last save (or since the fill began) before a block-row
// boundary saves again — about 100 ms of fill at ~500 Mcell/s. A variable
// only so that tests can lower it to checkpoint small runs.
var ckptEveryCells int64 = 1 << 26

// ckptIdent fingerprints everything that must match for a snapshot to be
// reusable. Job recovery replays the identical request, so a mismatch means
// the blob belongs to another job (or a corrupt read), not a subtle drift.
func (s *solver) ckptIdent(k, lanes int) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	h.Write(s.a)
	put(int64(len(s.a)))
	h.Write(s.b)
	put(int64(len(s.b)))
	put(int64(s.gap.Open))
	put(int64(s.gap.Extend))
	h.Write([]byte(s.m.Name))
	put(int64(k))
	put(int64(lanes))
	return h.Sum64()
}

// saveCheckpoint serializes the grid with `done` completed block-rows into
// the sink. Lines beyond the completed rows are serialized too — they hold
// exactly the partial segments a resumed sequential fill expects (block-row
// u only writes column-line segments inside its own row range, so the
// whole-array copy is the resume state, garbage tails included).
func (s *solver) saveCheckpoint(grid *gridCache, done int) {
	k, lanes := grid.k, int(s.k.Mod.Lanes())
	rows, cols := grid.t.rows(), grid.t.cols()
	n := 9*4 + 8 + 4 + // header (ident counted as two words) + CRC trailer
		(k+1)*2*8 + int(grid.entries)*8
	blob := make([]byte, 0, n)
	var word [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(word[:4], v)
		blob = append(blob, word[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		blob = append(blob, word[:]...)
	}
	put32(ckptMagic)
	put32(ckptVersion)
	put64(s.ckptIdent(k, lanes))
	put32(uint32(k))
	put32(uint32(rows))
	put32(uint32(cols))
	put32(uint32(lanes))
	put32(uint32(done))
	for _, b := range grid.rs {
		put64(uint64(b))
	}
	for _, b := range grid.cs {
		put64(uint64(b))
	}
	putLine := func(line []int64) {
		for _, v := range line {
			put64(uint64(v))
		}
	}
	for i := 0; i < k; i++ {
		putLine(grid.rows[i].H)
		if lanes == 2 {
			putLine(grid.rows[i].G)
		}
	}
	for i := 0; i < k; i++ {
		putLine(grid.cols[i].H)
		if lanes == 2 {
			putLine(grid.cols[i].G)
		}
	}
	put32(crc32.ChecksumIEEE(blob))
	if err := s.opt.ckpt.Save(blob); err == nil {
		s.c.Add(stats.CheckpointSaves, 1)
	}
}

// restoreCheckpoint loads the sink's snapshot into a freshly initialised
// grid and returns the block-row the fill should resume at (0 = cold run).
// Every validation failure degrades to 0.
func (s *solver) restoreCheckpoint(grid *gridCache) int {
	blob := s.opt.ckpt.Load()
	if len(blob) < 4 {
		return 0
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0
	}
	blob = body
	k, lanes := grid.k, int(s.k.Mod.Lanes())
	rows, cols := grid.t.rows(), grid.t.cols()
	r := ckptReader{data: blob}
	if r.u32() != ckptMagic || r.u32() != ckptVersion ||
		r.u64() != s.ckptIdent(k, lanes) ||
		r.u32() != uint32(k) || r.u32() != uint32(rows) ||
		r.u32() != uint32(cols) || r.u32() != uint32(lanes) {
		return 0
	}
	done := int(r.u32())
	if done < 0 || done > k {
		return 0
	}
	for i := range grid.rs {
		if int(r.u64()) != grid.rs[i] {
			return 0
		}
	}
	for i := range grid.cs {
		if int(r.u64()) != grid.cs[i] {
			return 0
		}
	}
	// Geometry verified: the line payload is a fixed-size tail. Bail before
	// touching the grid if it is short.
	want := k*lanes*(cols+1)*8 + k*lanes*(rows+1)*8
	if len(r.data)-r.off != want || r.bad {
		return 0
	}
	line := func(dst []int64) {
		for i := range dst {
			dst[i] = int64(r.u64())
		}
	}
	for i := 0; i < k; i++ {
		line(grid.rows[i].H)
		if lanes == 2 {
			line(grid.rows[i].G)
		}
	}
	for i := 0; i < k; i++ {
		line(grid.cols[i].H)
		if lanes == 2 {
			line(grid.cols[i].G)
		}
	}
	s.c.Add(stats.CheckpointRestores, 1)
	return done
}

// ckptReader is a bounds-checked little-endian cursor; reads past the end
// return zero and set bad.
type ckptReader struct {
	data []byte
	off  int
	bad  bool
}

func (r *ckptReader) u32() uint32 {
	if r.off+4 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *ckptReader) u64() uint64 {
	if r.off+8 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}
