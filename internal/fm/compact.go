package fm

import (
	"fmt"

	"fastlsa/internal/align"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// Direction bits stored per DPM entry by the compact variant (paper §2.1:
// "An alternative approach is to store three bits in each DPM entry to
// record the backward path. Each bit corresponds to one of the directions,
// diagonal, up or left.").
const (
	dirDiag byte = 1 << iota
	dirUp
	dirLeft
)

// AlignCompact is the traceback-bit full-matrix variant of §2.1: instead of
// the full score matrix it keeps one live score row plus a byte of direction
// bits per cell, cutting the quadratic footprint eightfold (1 byte vs one
// 8-byte score). All optimal predecessors are recorded, so the traceback can
// follow the same deterministic diag > up > left choice as Align — the two
// variants return byte-identical paths.
//
// The budget is charged (m+1)(n+1)/8 entries (bytes scaled to the 8-byte
// entry unit) plus one score row. Linear gap models only.
func AlignCompact(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, budget *memory.Budget, c *stats.Counters) (Result, error) {
	if err := gap.Validate(); err != nil {
		return Result{}, err
	}
	if !gap.IsLinear() {
		return Result{}, fmt.Errorf("fm: AlignCompact: affine gaps not supported (use Align)")
	}
	ra, rb := a.Residues, b.Residues
	rows, cols := len(ra)+1, len(rb)+1
	cells := int64(rows) * int64(cols)
	charged := (cells+7)/8 + int64(cols)
	if err := budget.ReserveRun(charged); err != nil {
		return Result{}, fmt.Errorf("fm: compact DPM of %d direction bytes: %w", cells, err)
	}
	defer budget.Release(charged)

	dirs, row, err := fillDirs(ra, rb, m, int64(gap.Extend), c)
	if err != nil {
		return Result{}, err
	}

	bld := align.NewBuilder(len(ra) + len(rb))
	r, cc := len(ra), len(rb)
	steps := int64(0)
	for r > 0 || cc > 0 {
		d := dirs[r*cols+cc]
		switch {
		case d&dirDiag != 0:
			bld.Push(align.Diag)
			r--
			cc--
		case d&dirUp != 0:
			bld.Push(align.Up)
			r--
		case d&dirLeft != 0:
			bld.Push(align.Left)
			cc--
		default:
			panic(fmt.Sprintf("fm: compact traceback stuck at (%d,%d)", r, cc))
		}
		steps++
	}
	c.Add(stats.TracebackSteps, steps)
	return Result{Score: row[len(rb)], Path: bld.Path()}, nil
}

// CountOptimalPaths counts the distinct optimal paths through the DPM using
// the direction bits (the paper notes "in general it is possible for more
// than one path to be optimal"). The count saturates at limit (pass <= 0 for
// a default of 1<<62) to avoid overflow on highly degenerate inputs.
func CountOptimalPaths(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, limit int64, c *stats.Counters) (int64, error) {
	if err := gap.Validate(); err != nil {
		return 0, err
	}
	if !gap.IsLinear() {
		return 0, fmt.Errorf("fm: CountOptimalPaths: affine gaps not supported")
	}
	if limit <= 0 {
		limit = 1 << 62
	}
	ra, rb := a.Residues, b.Residues
	rows, cols := len(ra)+1, len(rb)+1

	dirs, _, err := fillDirs(ra, rb, m, int64(gap.Extend), c)
	if err != nil {
		return 0, err
	}

	// Count paths backwards from (m, n): one row of counts suffices.
	cnt := make([]int64, cols)
	next := make([]int64, cols)
	sat := func(x, y int64) int64 {
		s := x + y
		if s > limit || s < 0 {
			return limit
		}
		return s
	}
	// Bottom row r = rows-1 processed first going upwards.
	// cnt holds row r+1 of path counts; next is row r, built right to left
	// so next[j+1] is available when next[j] is computed. A node's
	// successors are the nodes whose direction bits point back at it.
	for r := rows - 1; r >= 0; r-- {
		for j := cols - 1; j >= 0; j-- {
			if r == rows-1 && j == cols-1 {
				next[j] = 1
				continue
			}
			var total int64
			if d := dirAt(dirs, cols, rows, r, j+1); d&dirLeft != 0 {
				total = sat(total, next[j+1])
			}
			if r+1 < rows {
				if d := dirs[(r+1)*cols+j]; d&dirUp != 0 {
					total = sat(total, cnt[j])
				}
				if j+1 < cols {
					if d := dirs[(r+1)*cols+j+1]; d&dirDiag != 0 {
						total = sat(total, cnt[j+1])
					}
				}
			}
			next[j] = total
		}
		cnt, next = next, cnt
	}
	return cnt[0], nil
}

// fillDirs computes the direction-bit matrix and the final score row with a
// single live score row.
func fillDirs(ra, rb []byte, m *scoring.Matrix, g int64, c *stats.Counters) (dirs []byte, row []int64, err error) {
	rows, cols := len(ra)+1, len(rb)+1
	dirs = make([]byte, rows*cols)
	row = kernel.Boundary(nil, len(rb), 0, g)

	// Row 0: only Left is possible; column 0: only Up.
	for j := 1; j < cols; j++ {
		dirs[j] = dirLeft
	}
	for r := 1; r < rows; r++ {
		dirs[r*cols] = dirUp
	}

	poll := c.StartPoll()
	for r := 1; r < rows; r++ {
		if err := poll.Tick(len(rb)); err != nil {
			return nil, nil, err
		}
		srow := m.Row(ra[r-1])
		diag := row[0]
		rv := int64(r) * g
		row[0] = rv
		base := r * cols
		for j := 1; j < cols; j++ {
			up := row[j]
			dv := diag + int64(srow[rb[j-1]])
			uv := up + g
			best := dv
			if uv > best {
				best = uv
			}
			lv := rv + g
			if lv > best {
				best = lv
			}
			var d byte
			if dv == best {
				d |= dirDiag
			}
			if uv == best {
				d |= dirUp
			}
			if lv == best {
				d |= dirLeft
			}
			dirs[base+j] = d
			row[j] = best
			rv = best
			diag = up
		}
	}
	c.Add(stats.Cells, int64(len(ra))*int64(len(rb)))
	return dirs, row, nil
}

func dirAt(dirs []byte, cols, rows, r, j int) byte {
	if j >= cols || r >= rows {
		return 0
	}
	return dirs[r*cols+j]
}
