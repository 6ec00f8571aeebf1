package wfa_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fastlsa/internal/align"
	"fastlsa/internal/memory"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/wfa"
)

// TestBiAlignDifferential is the linear-space pin: across divergence levels,
// scoring systems and seeds, BiAlign must agree with the unidirectional
// kernel and the kernel-layer score, and its stitched path must
// be a valid (0,0)→(m,n) walk re-scoring to exactly the reported score.
func TestBiAlignDifferential(t *testing.T) {
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
					res, err := wfa.BiAlign(a, b, sys.matrix, sys.gap, wfa.Options{Counters: &c})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					uni, err := wfa.Align(a, b, sys.matrix, sys.gap, wfa.Options{})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if res.Score != uni.Score {
						t.Fatalf("seed %d: biwfa score %d, wfa %d", seed, res.Score, uni.Score)
					}
					want, err := kernelScore(a, b, sys.matrix, sys.gap)
					if err != nil {
						t.Fatal(err)
					}
					if res.Score != want {
						t.Fatalf("seed %d: biwfa score %d, kernel %d", seed, res.Score, want)
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

// TestBiAlignLongPairs exercises enough optimal penalty for several
// recursion levels above the base-case cutoff.
func TestBiAlignLongPairs(t *testing.T) {
	for _, d := range []float64{0.01, 0.05, 0.15} {
		for seed := int64(1); seed <= 2; seed++ {
			a, b, err := seq.HomologousPair(2500, seq.DNA, model(d), seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := wfa.BiAlign(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{})
			if err != nil {
				t.Fatalf("div %.2f seed %d: %v", d, seed, err)
			}
			want, err := kernelScore(a, b, scoring.DNASimple, scoring.Linear(-4))
			if err != nil {
				t.Fatal(err)
			}
			if res.Score != want {
				t.Fatalf("div %.2f seed %d: score %d, want %d", d, seed, res.Score, want)
			}
			if err := res.Path.Validate(a.Len(), b.Len()); err != nil {
				t.Fatalf("div %.2f seed %d: %v", d, seed, err)
			}
			if got := align.ScorePath(a, b, res.Path, scoring.DNASimple, scoring.Linear(-4)); got != res.Score {
				t.Fatalf("div %.2f seed %d: path re-scores to %d", d, seed, got)
			}
		}
	}
}

// TestBiAlignLengthSkew: gap-dominated optima have no match-state overlap
// to split on, driving the hirschberg fallback path.
func TestBiAlignLengthSkew(t *testing.T) {
	gap := scoring.Linear(-4)
	for _, tc := range [][2]string{
		{"ACGT", "ACGTACGTACGTACGT"},
		{"ACGTACGTACGTACGT", "ACG"},
		{"A", "TTTT"},
		{"ACACACAC", "ACAC"},
		{"AAAA", "AAAACCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCAAAA"},
	} {
		a := mustSeq(t, "a", tc[0])
		b := mustSeq(t, "b", tc[1])
		res, err := wfa.BiAlign(a, b, scoring.DNASimple, gap, wfa.Options{})
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

func TestBiAlignEmptyAndIdentical(t *testing.T) {
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
		res, err := wfa.BiAlign(tc.a, tc.b, scoring.DNASimple, gap, wfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != tc.score || res.Path.Len() != tc.moves {
			t.Fatalf("got score %d len %d, want %d/%d", res.Score, res.Path.Len(), tc.score, tc.moves)
		}
	}
	a := mustSeq(t, "a", "ACGTACGTACGTACGTACGTACGT")
	res, err := wfa.BiAlign(a, a, scoring.DNASimple, scoring.Linear(-4), wfa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 * a.Len()); res.Score != want {
		t.Fatalf("score %d, want %d", res.Score, want)
	}
	for _, m := range res.Path.Moves() {
		if m != align.Diag {
			t.Fatal("identical pair produced non-diagonal move")
		}
	}
}

// TestBiAlignMemory pins the tentpole claim at test scale: the bidirectional
// mode's budget high-water must sit far below the unidirectional kernel's
// retained history on a low-divergence pair, with the same score. (Bench E15
// pins the full ≥10× criterion at n=3000; this guards the mechanism under
// -race with a softer factor so it cannot silently regress to full
// retention.)
func TestBiAlignMemory(t *testing.T) {
	a, b, err := seq.HomologousPair(2000, seq.DNA, model(0.02), 3)
	if err != nil {
		t.Fatal(err)
	}
	uniBudget, err := memory.NewBudget(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	biBudget, err := memory.NewBudget(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Budget: uniBudget})
	if err != nil {
		t.Fatal(err)
	}
	bi, err := wfa.BiAlign(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Budget: biBudget})
	if err != nil {
		t.Fatal(err)
	}
	if uni.Score != bi.Score {
		t.Fatalf("scores differ: %d vs %d", uni.Score, bi.Score)
	}
	if biBudget.Used() != 0 || uniBudget.Used() != 0 {
		t.Fatalf("budget leak: uni %d, bi %d", uniBudget.Used(), biBudget.Used())
	}
	if biBudget.Peak() == 0 {
		t.Fatal("bi peak accounting missing")
	}
	if 4*biBudget.Peak() > uniBudget.Peak() {
		t.Fatalf("bi peak %d not well below uni peak %d", biBudget.Peak(), uniBudget.Peak())
	}
}

// TestBiAlignBudget: exceeding a tiny budget fails cleanly (wrapping
// memory.ErrExceeded, the facade's fallback trigger) with nothing leaked.
func TestBiAlignBudget(t *testing.T) {
	a, b, err := seq.HomologousPair(600, seq.DNA, model(0.4), 5)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := memory.NewBudget(16)
	if err != nil {
		t.Fatal(err)
	}
	_, err = wfa.BiAlign(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Budget: tiny})
	if !errors.Is(err, memory.ErrExceeded) {
		t.Fatalf("want ErrExceeded, got %v", err)
	}
	if tiny.Used() != 0 {
		t.Fatalf("budget leak: %d entries still reserved", tiny.Used())
	}
}

func TestBiAlignCancellation(t *testing.T) {
	a, b, err := seq.HomologousPair(2000, seq.DNA, model(0.5), 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := (*stats.Counters)(nil).Derive(ctx)
	_, err = wfa.BiAlign(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Counters: c})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestBiAlignTraceSpan(t *testing.T) {
	a, b, err := seq.HomologousPair(300, seq.DNA, model(0.1), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	if _, err := wfa.BiAlign(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Obs: obs.Run{Trace: tr}}); err != nil {
		t.Fatal(err)
	}
	// The whole run is one wfa-biwfa phase: its base-case sub-runs open no
	// wfa-fill/traceback phases of their own.
	names := map[string]int{}
	for _, s := range tr.Spans() {
		names[s.Name]++
	}
	if names[obs.SpanWFABi] != 1 || len(names) != 1 {
		t.Fatalf("spans = %v, want exactly one %s", names, obs.SpanWFABi)
	}
}

// countingCtx is a stub context whose Done channel reads as closed while
// Err keeps answering nil, so a kernel's cancellation poller runs the full
// computation and we can count how often it actually checked.
type countingCtx struct {
	done chan struct{}
	errs int
}

func newCountingCtx() *countingCtx {
	c := &countingCtx{done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return c.done }
func (c *countingCtx) Err() error                  { c.errs++; return nil }
func (c *countingCtx) Value(any) any               { return nil }

// TestBacktracePollsCancellation is the regression test for the backtrace
// polling bug: the walk used to check cancellation only in its terminal
// branch, so a cancelled job stayed live for the entire O(m+n+s) walk. The
// pair below interleaves a mismatch every PollTargetCells matches: the fill
// is tiny (the optimal penalty is 12 mismatches) but the backtrace rewinds
// twelve ~8Ki match stretches, each of which must tick the poller. Without
// the walk polls the total check count stays in low single digits.
func TestBacktracePollsCancellation(t *testing.T) {
	const stretches = 12
	var buf bytes.Buffer
	for i := 0; i < stretches; i++ {
		for j := 0; j < stats.PollTargetCells; j++ {
			buf.WriteByte("ACGT"[j%4])
		}
		buf.WriteByte('A')
	}
	sa := buf.String()
	// Mutate only the single residue after each stretch so the pair stays
	// gap-free: flip the trailing 'A' of every stretch to 'T' in b.
	rb := []byte(sa)
	for i := 1; i <= stretches; i++ {
		rb[i*(stats.PollTargetCells+1)-1] = 'T'
	}
	a := mustSeq(t, "a", sa)
	b := mustSeq(t, "b", string(rb))

	ctx := newCountingCtx()
	c := (*stats.Counters)(nil).Derive(ctx)
	res, err := wfa.Align(a, b, scoring.DNASimple, scoring.Linear(-4), wfa.Options{Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Path.Validate(a.Len(), b.Len()); err != nil {
		t.Fatal(err)
	}
	if ctx.errs < stretches {
		t.Fatalf("cancellation polled %d times; want >= %d (backtrace walk must poll periodically)", ctx.errs, stretches)
	}
}

// FuzzWFADifferential cross-checks both WFA modes against the kernel layer
// on fuzzer-chosen sequences and mutation rates. Seeds come from the E13
// divergence ladder.
func FuzzWFADifferential(f *testing.F) {
	for _, d := range []float64{0.001, 0.01, 0.05, 0.10, 0.20, 0.30} {
		f.Add("ACGTACGTACGTACGTACGTTGCAACGTACGTGGTACCA", d, int64(1000*d)+13)
	}
	f.Add("", 0.5, int64(1))
	f.Add("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", 0.9, int64(2))
	f.Fuzz(func(t *testing.T, raw string, rate float64, seed int64) {
		if len(raw) > 400 {
			raw = raw[:400]
		}
		letters := []byte(nil)
		for i := 0; i < len(raw); i++ {
			letters = append(letters, "ACGT"[raw[i]%4])
		}
		a, err := seq.New("a", string(letters), seq.DNA)
		if err != nil || a.Len() == 0 {
			t.Skip()
		}
		if rate < 0 || rate > 1 {
			rate = 0.25
		}
		m := model(rate)
		if err := m.Validate(); err != nil {
			t.Skip()
		}
		b, err := m.Mutate("b", a, seed)
		if err != nil {
			t.Skip()
		}
		for _, sys := range []struct {
			matrix *scoring.Matrix
			gap    scoring.Gap
		}{
			{scoring.DNASimple, scoring.Linear(-4)},
			{scoring.DNASimple, scoring.Affine(-6, -2)},
		} {
			want, err := kernelScore(a, b, sys.matrix, sys.gap)
			if err != nil {
				t.Fatal(err)
			}
			uni, err := wfa.Align(a, b, sys.matrix, sys.gap, wfa.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bi, err := wfa.BiAlign(a, b, sys.matrix, sys.gap, wfa.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if uni.Score != want || bi.Score != want {
				t.Fatalf("scores diverge: kernel %d, wfa %d, biwfa %d", want, uni.Score, bi.Score)
			}
			if err := bi.Path.Validate(a.Len(), b.Len()); err != nil {
				t.Fatal(err)
			}
			if got := align.ScorePath(a, b, bi.Path, sys.matrix, sys.gap); got != want {
				t.Fatalf("biwfa path re-scores to %d, want %d", got, want)
			}
		}
	})
}

func BenchmarkBiAlign(b *testing.B) {
	for _, d := range []float64{0.01, 0.1} {
		b.Run(fmt.Sprintf("div=%.2f", d), func(b *testing.B) {
			x, y, err := seq.HomologousPair(2000, seq.DNA, model(d), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wfa.BiAlign(x, y, scoring.DNASimple, scoring.Linear(-4), wfa.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
