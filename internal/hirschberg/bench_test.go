package hirschberg_test

import (
	"testing"

	"fastlsa/internal/hirschberg"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// BenchmarkAlign measures the linear-gap divide-and-conquer aligner; the
// allocs/op column tracks how well the row pool keeps the recursion's
// boundary and sweep vectors out of the allocator.
func BenchmarkAlign(b *testing.B) {
	const n = 1000
	x, y := testutil.HomologousPair(n, seq.DNA, 42)
	b.SetBytes(int64(n) * int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hirschberg.Align(x, y, scoring.DNASimple, scoring.Linear(-4), hirschberg.Options{}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignAffine measures the Myers-Miller affine aligner.
func BenchmarkAlignAffine(b *testing.B) {
	const n = 600
	x, y := testutil.HomologousPair(n, seq.Protein, 43)
	b.SetBytes(int64(n) * int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hirschberg.Align(x, y, scoring.BLOSUM62, scoring.Affine(-11, -1), hirschberg.Options{}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
