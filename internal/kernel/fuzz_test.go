package kernel_test

import (
	"math/rand"
	"slices"
	"testing"

	"fastlsa/internal/kernel"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// FuzzSweep is the differential check of the row functions: over random
// residues (empty and single-residue inputs included), a random matrix,
// every gap model and arbitrary finite boundary edges, the O(n)-space
// sweeps must reproduce the stored-plane fill exactly.
//
//   - Forward's four output lanes equal the bottom row and right column of
//     FillRect over the same edges, also when outRow aliases top and when
//     outRow is left to scratch;
//   - a 2 x 2 tiled FillRegion (the parallel base case) equals FillRect.
func FuzzSweep(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(9), uint8(0), uint8(0), uint8(3))
	f.Add(int64(2), uint8(12), uint8(5), uint8(1), uint8(10), uint8(0))
	f.Add(int64(3), uint8(6), uint8(11), uint8(2), uint8(0), uint8(1))
	f.Add(int64(4), uint8(0), uint8(4), uint8(1), uint8(4), uint8(1))
	f.Add(int64(5), uint8(1), uint8(1), uint8(1), uint8(7), uint8(2))
	f.Add(int64(6), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, la, lb, kind, open, ext uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randomResidues(rng, int(la%40))
		b := randomResidues(rng, int(lb%40))
		e := -int64(ext%8) - 1
		var mod kernel.Model
		switch kind % 3 {
		case 0:
			mod = kernel.Linear(e)
		case 1:
			mod = kernel.Affine(-int64(open%16), e)
		default:
			mod = kernel.Affine(0, e)
		}
		k := kernel.New(testutil.RandomMatrix(seq.Protein, seed), mod, nil, nil)
		top := randomEdge(rng, k, len(b))
		left := randomEdge(rng, k, len(a))
		left.H[0] = top.H[0]
		checkSweep(t, k, a, b, top, left)
	})
}

// randomResidues draws n protein residues.
func randomResidues(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seq.Protein.Letters[rng.Intn(seq.Protein.Size())]
	}
	return out
}

// randomEdge draws an n+1-entry boundary edge with finite values in the
// live lanes; the gap lane's corner entry, which sits on the crossing
// boundary, is dead (NegInf).
func randomEdge(rng *rand.Rand, k *kernel.Kernel, n int) kernel.Edge {
	e := k.NewEdge(n)
	for i := range e.H {
		e.H[i] = rng.Int63n(101) - 50
	}
	if e.G != nil {
		for i := range e.G {
			e.G[i] = rng.Int63n(101) - 60
		}
		e.G[0] = kernel.NegInf
	}
	return e
}

func cloneEdge(e kernel.Edge) kernel.Edge {
	return kernel.Edge{H: slices.Clone(e.H), G: slices.Clone(e.G)}
}

func checkSweep(t *testing.T, k *kernel.Kernel, a, b []byte, top, left kernel.Edge) {
	t.Helper()
	m, n := len(a), len(b)
	outRow, outCol := k.NewEdge(n), k.NewEdge(m)
	if err := k.Forward(a, b, top, left, outRow, outCol); err != nil {
		t.Fatal(err)
	}

	// Reference: the stored planes' bottom row and right column.
	rt := k.MakeRect((m + 1) * (n + 1))
	if err := k.FillRect(a, b, top, left, rt); err != nil {
		t.Fatal(err)
	}
	want := kernel.Edge{H: rt.H[m*(n+1):]}
	wantCol := kernel.Edge{H: make([]int64, m+1)}
	for r := range wantCol.H {
		wantCol.H[r] = rt.H[r*(n+1)+n]
	}
	if k.Mod.IsAffine() {
		want.G = rt.E[m*(n+1):]
		wantCol.G = make([]int64, m+1)
		for r := range wantCol.G {
			wantCol.G[r] = rt.F[r*(n+1)+n]
		}
	}
	equalEdge(t, "Forward outRow", outRow, want)
	equalEdge(t, "Forward outCol", outCol, wantCol)

	// A 2 x 2 tiling of the same rectangle, filled tile by tile in
	// wavefront order, stores the same planes.
	tiled := k.MakeRect((m + 1) * (n + 1))
	if err := k.SeedRect(a, b, top, left, tiled); err != nil {
		t.Fatal(err)
	}
	rs, cs := []int{0, m / 2, m}, []int{0, n / 2, n}
	for ti := 0; ti < 2; ti++ {
		for tj := 0; tj < 2; tj++ {
			if err := k.FillRegion(a, b, tiled, rs[ti], rs[ti+1], cs[tj], cs[tj+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !slices.Equal(tiled.H, rt.H) || !slices.Equal(tiled.E, rt.E) || !slices.Equal(tiled.F, rt.F) {
		t.Fatal("tiled FillRegion differs from FillRect")
	}

	// outRow aliasing top consumes top as scratch; scratch output rows.
	alias := cloneEdge(top)
	aliasCol := k.NewEdge(m)
	if err := k.Forward(a, b, alias, left, alias, aliasCol); err != nil {
		t.Fatal(err)
	}
	equalEdge(t, "aliased Forward outRow", alias, want)
	equalEdge(t, "aliased Forward outCol", aliasCol, wantCol)
	scratchCol := k.NewEdge(m)
	if err := k.Forward(a, b, top, left, kernel.Edge{}, scratchCol); err != nil {
		t.Fatal(err)
	}
	equalEdge(t, "scratch-row Forward outCol", scratchCol, wantCol)
}

func equalEdge(t *testing.T, what string, got, want kernel.Edge) {
	t.Helper()
	if !slices.Equal(got.H, want.H) {
		t.Fatalf("%s H = %v, want %v", what, got.H, want.H)
	}
	if !slices.Equal(got.G, want.G) {
		t.Fatalf("%s gap lane = %v, want %v", what, got.G, want.G)
	}
}
