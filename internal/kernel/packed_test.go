package kernel_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// FuzzPackedForward is the differential check of the packed sweep: on every
// output lane, Forward with its packed strips must equal Forward over
// scalar rows alone, both at the measured crossover and with the strips
// forced onto every width. The inputs are:
//
//   - boundaries cut from a stored FillRect matrix of a homologous protein
//     pair at a random (r0, c0), which must take the strips whenever the
//     block is eligible;
//   - heights 17..112, most of them not multiples of 16, and widths from 40
//     columns below the crossover to 215 above it, and 1..32;
//   - BLOSUM62 −11/−1, random matrices with random penalties, and
//     Affine(0, ext);
//   - matrices at the seven-bit limit Smax+2Q = 127, and one past it, which
//     must fall back;
//   - hand-made in-range edges whose first step sets the sentinel, which
//     must fall back.
func FuzzPackedForward(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(200), uint8(0), uint8(11), uint8(0))
	f.Add(int64(2), uint8(15), uint8(40), uint8(1), uint8(7), uint8(2))
	f.Add(int64(3), uint8(64), uint8(90), uint8(2), uint8(0), uint8(1))
	f.Add(int64(4), uint8(33), uint8(255), uint8(3), uint8(5), uint8(0))
	f.Add(int64(5), uint8(80), uint8(0), uint8(3), uint8(3), uint8(3))
	f.Add(int64(6), uint8(47), uint8(120), uint8(4), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, height, width, kind, open, ext uint8) {
		rng := rand.New(rand.NewSource(seed))
		h := 17 + int(height%96)
		o, e := -int64(open%12), -int64(ext%4)-1
		m, eligible := testutil.RandomMatrix(seq.Protein, seed), true
		switch kind % 5 {
		case 0:
			m, o, e = scoring.BLOSUM62, -11, -1
		case 2:
			o = 0
		case 3:
			// At the limit the sentinel may trip on real DP values, so
			// only exactness is checked; one past it never takes a strip.
			m, eligible = limitMatrix(rng, -2*(o+e), seed&1 == 1), false
		case 4:
			o = min(o, -1) // the sentinel edges need qo > 0
		}
		k := kernel.New(m, kernel.Affine(o, e), nil, nil)
		w := blockWidth(k, width)
		if kind%5 == 4 {
			a, b, top, left := sentinelBlock(rng, k, h, w)
			if rows := packedRows(t, k, a, b, top, left); rows != 0 {
				t.Fatalf("sentinel edges took %d packed rows, want a fallback", rows)
			}
			checkPacked(t, k, a, b, top, left, nil)
			return
		}
		a, b, top, left, want := cutBlock(t, rng, k, h, w)
		rows := packedRows(t, k, a, b, top, left)
		if kind%5 == 3 && seed&1 == 1 && rows != 0 {
			t.Fatalf("a matrix past the limit took %d packed rows", rows)
		}
		strips := (h - 1) / 16 * 16
		if eligible && rows != strips {
			t.Fatalf("eligible %dx%d block took %d packed rows, want %d", h, w, rows, strips)
		}
		checkPacked(t, k, a, b, top, left, want[:])
	})
}

// FuzzPackedForwardLinear is FuzzPackedForward under linear gaps, where
// the strips need no sentinel and every full strip of an eligible block
// packs. The inputs are:
//
//   - boundaries cut from a stored FillRect matrix of a homologous DNA or
//     protein pair at a random (r0, c0);
//   - heights 16..112, most of them not multiples of 16, and widths from 40
//     columns below the crossover to 215 above it, and 1..32;
//   - the served DNA matrix, BLOSUM62 and random matrices, gaps −1..−15;
//   - ends-free zero edges;
//   - matrices at the seven-bit limit Smax+2Q = 127, which must pack, and
//     one past it, which must not;
//   - an edge difference just outside [0, 127], which must fall back.
func FuzzPackedForwardLinear(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(120), uint8(0), uint8(3))
	f.Add(int64(2), uint8(15), uint8(40), uint8(1), uint8(7))
	f.Add(int64(3), uint8(64), uint8(90), uint8(2), uint8(0))
	f.Add(int64(4), uint8(33), uint8(255), uint8(3), uint8(5))
	f.Add(int64(5), uint8(80), uint8(200), uint8(4), uint8(14))
	f.Add(int64(6), uint8(47), uint8(10), uint8(5), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, height, width, kind, gap uint8) {
		rng := rand.New(rand.NewSource(seed))
		h, g := 16+int(height%97), -int64(gap%15)-1
		m, eligible := scoring.DNASimple, true
		switch kind % 6 {
		case 1:
			m = scoring.BLOSUM62
		case 2:
			m = testutil.RandomMatrix(seq.Protein, seed)
		case 3:
			m = limitMatrix(rng, -2*g, seed&1 == 1)
			eligible = seed&1 == 0
		}
		k := kernel.New(m, kernel.Linear(g), nil, nil)
		w := blockWidth(k, width)
		strips := h / 16 * 16
		switch kind % 6 {
		case 4, 5:
			// Ends-free zero edges; kind 5 then puts one top or left
			// edge difference just outside [0, 127].
			a, b := randomBlock(rng, m, h), randomBlock(rng, m, w)
			top, left := k.ModeEdge(w, true), k.ModeEdge(h, true)
			if kind%6 == 5 {
				e, span, d := top.H, w, int64(128)
				if seed&1 == 1 {
					d = -1
				}
				if seed&2 == 2 {
					e, span = left.H, strips // the rows the strips would take
				}
				for i := 1 + rng.Intn(span); i < len(e); i++ {
					e[i] += d + g
				}
				strips = 0
			}
			if rows := packedRows(t, k, a, b, top, left); rows != strips {
				t.Fatalf("%dx%d block with ends-free edges took %d packed rows, want %d", h, w, rows, strips)
			}
			checkPacked(t, k, a, b, top, left, nil)
			return
		}
		a, b, top, left, want := cutBlock(t, rng, k, h, w)
		rows := packedRows(t, k, a, b, top, left)
		if !eligible {
			strips = 0
		}
		if rows != strips {
			t.Fatalf("%dx%d block (eligible %v) took %d packed rows, want %d", h, w, eligible, rows, strips)
		}
		checkPacked(t, k, a, b, top, left, want[:])
	})
}

// blockWidth maps a fuzzed byte to a block width: 1..32 below 32 (the
// forced strips on blocks narrower than a chunk), otherwise from 40
// columns below k's crossover up.
func blockWidth(k *kernel.Kernel, width uint8) int {
	if width < 32 {
		return 1 + int(width)
	}
	return k.PackedMinWidth() - 40 + int(width)
}

// randomBlock draws n residues of m's alphabet.
func randomBlock(rng *rand.Rand, m *scoring.Matrix, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.Alphabet.Letters[rng.Intn(m.Alphabet.Size())]
	}
	return out
}

// packedRows reports the rows the packed strips take on the block with the
// crossover lifted.
func packedRows(t *testing.T, k *kernel.Kernel, a, b []byte, top, left kernel.Edge) int {
	t.Helper()
	defer kernel.SetPackedMinWidth(0)()
	rows, err := k.PackedRows(a, b, top, left)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// limitMatrix returns a random protein matrix whose largest score is
// exactly 127−twoQ, or one more when over is set.
func limitMatrix(rng *rand.Rand, twoQ int64, over bool) *scoring.Matrix {
	top := int(127 - twoQ)
	if over {
		top++
	}
	letters := seq.Protein.Letters
	pairs := map[string]int{}
	for i, x := range letters {
		for _, y := range letters[i:] {
			pairs[string([]byte{x, y})] = rng.Intn(2*top+1) - top
		}
	}
	pairs[string([]byte{letters[0], letters[0]})] = top
	m, err := scoring.NewMatrix("limit", seq.Protein, 0, pairs)
	if err != nil {
		panic(err)
	}
	return m
}

// cutBlock fills the stored planes of a homologous pair over the matrix's
// alphabet from leading-gap boundaries and cuts an h x w block out of them
// at a random (r0, c0): its residues, its top and left edges, and the
// bottom row and right column the planes hold for it.
func cutBlock(t *testing.T, rng *rand.Rand, k *kernel.Kernel, h, w int) (a, b []byte, top, left kernel.Edge, want [2]kernel.Edge) {
	t.Helper()
	r0, c0 := rng.Intn(33), rng.Intn(65)
	n := max(r0+h, c0+w) + 40
	x, y, err := seq.HomologousPair(n, k.M.Alphabet, proteinDivergence20, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := x.Residues[:r0+h], y.Residues[:min(c0+w, y.Len())]
	if len(rb) < c0+w {
		t.Skip("mutated sequence too short for the block")
	}
	rt := k.MakeRect((len(ra) + 1) * (len(rb) + 1))
	if err := k.FillRect(ra, rb, k.LeadEdge(len(rb), 0), k.LeadEdge(len(ra), 0), rt); err != nil {
		t.Fatal(err)
	}
	cols := len(rb) + 1
	affine := k.Mod.IsAffine()
	row := func(r int) kernel.Edge {
		e := kernel.Edge{H: slices.Clone(rt.H[r*cols+c0 : r*cols+c0+w+1])}
		if affine {
			e.G = slices.Clone(rt.E[r*cols+c0 : r*cols+c0+w+1])
		}
		return e
	}
	col := func(c int) kernel.Edge {
		e := kernel.Edge{H: make([]int64, h+1)}
		for i := range e.H {
			e.H[i] = rt.H[(r0+i)*cols+c]
		}
		if affine {
			e.G = make([]int64, h+1)
			for i := range e.G {
				e.G[i] = rt.F[(r0+i)*cols+c]
			}
		}
		return e
	}
	top, left, want = row(r0), col(c0), [2]kernel.Edge{row(r0 + h), col(c0 + w)}
	if affine {
		// The sweep's output lanes are dead where they sit on the input
		// boundary: the bottom row's E at column 0 and the right column's
		// F at row 0.
		want[0].G[0], want[1].G[0] = kernel.NegInf, kernel.NegInf
	}
	return ra[r0:], rb[c0:], top, left, want
}

// sentinelBlock builds an otherwise eligible block (its rows use four
// residues) with hand-made edges that pass the range check but trip the
// sentinel at the first step: v′ = 127 and x′ = qo on the top edge give
// lane 0 A+qo = 127+2qo ≥ 128, the model's qo being positive.
func sentinelBlock(rng *rand.Rand, k *kernel.Kernel, h, w int) (a, b []byte, top, left kernel.Edge) {
	q := -(k.Mod.Open + k.Mod.Ext)
	a, b = make([]byte, h), randomResidues(rng, w)
	for i := range a {
		a[i] = seq.Protein.Letters[rng.Intn(4)]
	}
	top, left = k.LeadEdge(w, 0), k.LeadEdge(h, 0)
	for j := 1; j <= w; j++ {
		top.H[j] = top.H[j-1] + 127 - q
		top.G[j] = top.H[j]
	}
	return a, b, top, left
}

// checkPacked compares Forward at the crossover and with the strips forced
// on every width against Forward over scalar rows alone, and against want
// (the stored planes' bottom row and right column) when given; the forced
// run also consumes an aliased copy of top as its output row.
func checkPacked(t *testing.T, k *kernel.Kernel, a, b []byte, top, left kernel.Edge, want []kernel.Edge) {
	t.Helper()
	run := func(minWidth int, aliased bool) (kernel.Edge, kernel.Edge) {
		defer kernel.SetPackedMinWidth(minWidth)()
		in, outRow, outCol := cloneEdge(top), k.NewEdge(len(b)), k.NewEdge(len(a))
		if aliased {
			outRow = in
		}
		if err := k.Forward(a, b, in, left, outRow, outCol); err != nil {
			t.Fatal(err)
		}
		return outRow, outCol
	}
	scalarRow, scalarCol := run(1<<30, false)
	for _, c := range []struct {
		minWidth int
		aliased  bool
	}{{k.PackedMinWidth(), false}, {0, false}, {0, true}} {
		gotRow, gotCol := run(c.minWidth, c.aliased)
		what := fmt.Sprintf("crossover %d aliased %v", c.minWidth, c.aliased)
		equalEdge(t, what+" outRow", gotRow, scalarRow)
		equalEdge(t, what+" outCol", gotCol, scalarCol)
	}
	if want != nil {
		equalEdge(t, "scalar outRow vs stored planes", scalarRow, want[0])
		equalEdge(t, "scalar outCol vs stored planes", scalarCol, want[1])
	}
}
