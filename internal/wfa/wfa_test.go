package wfa_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/wfa"
)

// model builds a mutation model with the given substitution rate and an
// indel rate one tenth of it on each side.
func model(d float64) seq.MutationModel {
	return seq.MutationModel{
		SubstitutionRate: d,
		InsertionRate:    d / 10,
		DeletionRate:     d / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}
}

// TestAlignDifferential is the WFA-vs-kernel-layer property suite: across
// divergence levels, scoring systems and seeds, the WFA score must equal the
// Hirschberg (kernel-layer) score, and the WFA path must be a valid
// (0,0)→(m,n) walk that re-scores to exactly the reported score.
func TestAlignDifferential(t *testing.T) {
	systems := []struct {
		name   string
		matrix *scoring.Matrix
		gap    scoring.Gap
	}{
		{"dna-linear", scoring.DNASimple, scoring.Linear(-4)},
		{"dna-affine", scoring.DNASimple, scoring.Affine(-6, -2)},
		{"strict-linear", scoring.DNAStrict, scoring.Linear(-1)},
	}
	divergences := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5}
	for _, sys := range systems {
		for _, d := range divergences {
			t.Run(fmt.Sprintf("%s/div=%.2f", sys.name, d), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 4; seed++ {
					a, b, err := seq.HomologousPair(220, seq.DNA, model(d), seed)
					if err != nil {
						t.Fatal(err)
					}
					var c stats.Counters
					res, err := wfa.Align(a, b, sys.matrix, sys.gap, wfa.Options{Counters: &c})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					want, err := kernelScore(a, b, sys.matrix, sys.gap)
					if err != nil {
						t.Fatal(err)
					}
					if res.Score != want {
						t.Fatalf("seed %d: wfa score %d, kernel %d", seed, res.Score, want)
					}
					if err := res.Path.Validate(a.Len(), b.Len()); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if got := align.ScorePath(a, b, res.Path, sys.matrix, sys.gap); got != res.Score {
						t.Fatalf("seed %d: path re-scores to %d, reported %d", seed, got, res.Score)
					}
					if c.Cells.Load() == 0 && d > 0 {
						t.Fatalf("seed %d: no cells counted", seed)
					}
				}
			})
		}
	}
}

// TestAlignLengthSkew covers strongly unequal lengths, where the terminal
// diagonal sits far from the origin and gaps dominate.
func TestAlignLengthSkew(t *testing.T) {
	gap := scoring.Linear(-4)
	for _, tc := range [][2]string{
		{"ACGT", "ACGTACGTACGTACGT"},
		{"ACGTACGTACGTACGT", "ACG"},
		{"A", "TTTT"},
		{"ACACACAC", "ACAC"},
	} {
		a := mustSeq(t, "a", tc[0])
		b := mustSeq(t, "b", tc[1])
		res, err := wfa.Align(a, b, scoring.DNASimple, gap, wfa.Options{})
		if err != nil {
			t.Fatalf("%q vs %q: %v", tc[0], tc[1], err)
		}
		want, err := kernelScore(a, b, scoring.DNASimple, gap)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != want {
			t.Fatalf("%q vs %q: score %d, want %d", tc[0], tc[1], res.Score, want)
		}
		if err := res.Path.Validate(a.Len(), b.Len()); err != nil {
			t.Fatal(err)
		}
		if got := align.ScorePath(a, b, res.Path, scoring.DNASimple, gap); got != res.Score {
			t.Fatalf("%q vs %q: path re-scores to %d", tc[0], tc[1], got)
		}
	}
}

func TestAlignEmpty(t *testing.T) {
	gap := scoring.Affine(-6, -2)
	empty := mustSeq(t, "e", "")
	full := mustSeq(t, "f", "ACGTT")
	for _, tc := range []struct {
		a, b  *seq.Sequence
		score int64
		moves int
	}{
		{empty, empty, 0, 0},
		{empty, full, int64(gap.Cost(5)), 5},
		{full, empty, int64(gap.Cost(5)), 5},
	} {
		res, err := wfa.Align(tc.a, tc.b, scoring.DNASimple, gap, wfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != tc.score || res.Path.Len() != tc.moves {
			t.Fatalf("got score %d len %d, want %d/%d", res.Score, res.Path.Len(), tc.score, tc.moves)
		}
		if err := res.Path.Validate(tc.a.Len(), tc.b.Len()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAlignIdentical(t *testing.T) {
	a := mustSeq(t, "a", "ACGTACGTACGT")
	res, err := wfa.Align(a, a, scoring.DNASimple, scoring.Linear(-4), wfa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 * a.Len()); res.Score != want {
		t.Fatalf("score %d, want %d", res.Score, want)
	}
	for _, m := range res.Path.Moves() {
		if m != align.Diag {
			t.Fatalf("identical pair produced non-diagonal move")
		}
	}
}

// TestFromScoring pins the compatibility contract: uniform DNA matrices
// convert (with the documented penalty values), non-uniform ones are
// rejected with a diagnostic.
func TestFromScoring(t *testing.T) {
	p, err := wfa.FromScoring(scoring.DNASimple, seq.DNA, scoring.Linear(-4))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mismatch != 18 || p.GapOpen != 0 || p.GapExtend != 13 {
		t.Fatalf("DNASimple penalties %+v", p)
	}
	p, err = wfa.FromScoring(scoring.DNASimple, seq.DNA, scoring.Affine(-6, -2))
	if err != nil {
		t.Fatal(err)
	}
	if p.GapOpen != 12 || p.GapExtend != 9 {
		t.Fatalf("affine penalties %+v", p)
	}
	for _, tc := range []struct {
		name   string
		matrix *scoring.Matrix
		alpha  *seq.Alphabet
		gap    scoring.Gap
	}{
		{"blosum62", scoring.BLOSUM62, seq.Protein, scoring.Linear(-4)},
		{"iupac", scoring.DNAIUPAC, scoring.DNAIUPAC.Alphabet, scoring.Linear(-4)},
		{"table1", scoring.Table1, scoring.Table1Alphabet, scoring.PaperGap},
		{"bad-gap", scoring.DNASimple, seq.DNA, scoring.Gap{Open: 0, Extend: 1}},
	} {
		if wfa.Compatible(tc.matrix, tc.alpha, tc.gap) {
			t.Fatalf("%s unexpectedly WFA-compatible", tc.name)
		}
	}
}

func TestAlignBudget(t *testing.T) {
	a, b, err := seq.HomologousPair(600, seq.DNA, model(0.4), 5)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := memory.NewBudget(64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Budget: tiny})
	if !errors.Is(err, memory.ErrExceeded) {
		t.Fatalf("want ErrExceeded, got %v", err)
	}
	if tiny.Used() != 0 {
		t.Fatalf("budget leak: %d entries still reserved", tiny.Used())
	}
	// A divergent run inside a generous budget reserves and then releases
	// everything.
	big, err := memory.NewBudget(1 << 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Budget: big}); err != nil {
		t.Fatal(err)
	}
	if big.Used() != 0 {
		t.Fatalf("budget leak: %d entries still reserved", big.Used())
	}
	if big.Peak() == 0 {
		t.Fatal("peak accounting missing")
	}
}

func TestAlignCancellation(t *testing.T) {
	a, b, err := seq.HomologousPair(2000, seq.DNA, model(0.5), 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := (*stats.Counters)(nil).Derive(ctx)
	_, err = wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Counters: c})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestAlignTraceSpans(t *testing.T) {
	a, b, err := seq.HomologousPair(300, seq.DNA, model(0.1), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	if _, err := wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Obs: obs.Run{Trace: tr}}); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	if !names[obs.SpanWFAFill] || !names[obs.SpanTraceback] {
		t.Fatalf("missing kernel spans, got %v", names)
	}
}

func mustSeq(t *testing.T, id, residues string) *seq.Sequence {
	t.Helper()
	s, err := seq.New(id, residues, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func BenchmarkAlignWFA(b *testing.B) {
	for _, d := range []float64{0.01, 0.1, 0.3} {
		b.Run(fmt.Sprintf("div=%.2f", d), func(b *testing.B) {
			x, y, err := seq.HomologousPair(2000, seq.DNA, model(d), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wfa.Align(x, y, scoring.DNASimple, scoring.Linear(-4), wfa.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelScore is the score-only kernel sweep every WFA score is checked
// against.
func kernelScore(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap) (int64, error) {
	return kernel.New(m, kernel.FromGap(gap), nil, nil).Score(a.Residues, b.Residues, align.Global)
}
