package fastlsa_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastlsa"
	"fastlsa/internal/backend"
	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/hirschberg"
	"fastlsa/internal/obs"
	"fastlsa/internal/seq"
)

// TestAlgorithmRoundTrip is the registry-derived ParseAlgorithm/String
// round-trip: the table comes from backend.All(), so a newly registered
// backend that is not wired into the enum (or vice versa) fails here
// instead of drifting silently.
func TestAlgorithmRoundTrip(t *testing.T) {
	if got, err := fastlsa.ParseAlgorithm("auto"); err != nil || got != fastlsa.AlgoAuto {
		t.Fatalf(`ParseAlgorithm("auto") = %v, %v`, got, err)
	}
	if got, err := fastlsa.ParseAlgorithm(""); err != nil || got != fastlsa.AlgoAuto {
		t.Fatalf(`ParseAlgorithm("") = %v, %v`, got, err)
	}
	if got := fastlsa.AlgoAuto.String(); got != "auto" {
		t.Fatalf("AlgoAuto.String() = %q", got)
	}
	infos := backend.All()
	for i, info := range infos {
		algo := fastlsa.Algorithm(i + 1)
		if got := algo.String(); got != info.Name {
			t.Fatalf("Algorithm(%d).String() = %q, registry slot %d is %q", i+1, got, i, info.Name)
		}
		for _, name := range append([]string{info.Name}, info.Aliases...) {
			got, err := fastlsa.ParseAlgorithm(name)
			if err != nil {
				t.Fatalf("ParseAlgorithm(%q): %v", name, err)
			}
			if got != algo {
				t.Fatalf("ParseAlgorithm(%q) = %v, want %v", name, got, algo)
			}
		}
	}
	// The enum ends exactly where the registry does.
	if got := fastlsa.Algorithm(len(infos) + 1).String(); !strings.HasPrefix(got, "Algorithm(") {
		t.Fatalf("value past the registry renders %q", got)
	}
	if _, err := fastlsa.ParseAlgorithm("no-such-backend"); !errors.Is(err, fastlsa.ErrInvalidInput) {
		t.Fatalf("unknown name error %v", err)
	}
	// The WFA constant is wired to its registry slot.
	if got := fastlsa.AlgoWFA.String(); got != "wfa" {
		t.Fatalf("AlgoWFA.String() = %q", got)
	}
}

// TestBackendRegistryEquivalence pins the refactor byte-for-byte: for each
// rebased backend, the facade (now dispatching through the registry) must
// produce exactly the alignment the underlying engine produces when called
// directly — same score, same move sequence.
func TestBackendRegistryEquivalence(t *testing.T) {
	a, b, err := fastlsa.HomologousPair(260, fastlsa.DNA, fastlsa.DefaultHomology, 41)
	if err != nil {
		t.Fatal(err)
	}
	matrix, gap := fastlsa.DNASimple, fastlsa.Linear(-4)
	direct := map[fastlsa.Algorithm]func() (fm.Result, error){
		fastlsa.AlgoFastLSA: func() (fm.Result, error) {
			return core.Align(a, b, matrix, gap, core.Options{Workers: 1})
		},
		fastlsa.AlgoFullMatrix: func() (fm.Result, error) {
			return fm.Align(a, b, matrix, gap, nil, nil)
		},
		fastlsa.AlgoHirschberg: func() (fm.Result, error) {
			return hirschberg.Align(a, b, matrix, gap, hirschberg.Options{}, nil, nil)
		},
		fastlsa.AlgoCompact: func() (fm.Result, error) {
			return fm.AlignCompact(a, b, matrix, gap, nil, nil)
		},
	}
	for algo, call := range direct {
		t.Run(algo.String(), func(t *testing.T) {
			want, err := call()
			if err != nil {
				t.Fatal(err)
			}
			var route fastlsa.RouteInfo
			got, err := fastlsa.Align(a, b, fastlsa.Options{
				Matrix: matrix, Gap: gap, Algorithm: algo, Workers: 1, Route: &route,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Score != want.Score {
				t.Fatalf("facade score %d, direct %d", got.Score, want.Score)
			}
			if got.Path.String() != want.Path.String() {
				t.Fatalf("facade path differs from direct path:\n%s\n%s", got.Path.String(), want.Path.String())
			}
			if route.Backend != algo.String() || route.Reason != backend.ReasonExplicit {
				t.Fatalf("route %+v", route)
			}
		})
	}
}

func divergencePair(t *testing.T, n int, sub float64, seed int64) (*fastlsa.Sequence, *fastlsa.Sequence) {
	t.Helper()
	a, b, err := fastlsa.HomologousPair(n, fastlsa.DNA, fastlsa.MutationModel{
		SubstitutionRate: sub,
		InsertionRate:    sub / 10,
		DeletionRate:     sub / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// rotatedPair returns a random DNA sequence of length n and its rotation by
// k. The two share almost every q-gram, so the identity estimate routes them
// to WFA, yet their edit distance is about 2k: the wavefronts grow with it
// where FastLSA's footprint does not.
func rotatedPair(t *testing.T, n, k int, seed int64) (*fastlsa.Sequence, *fastlsa.Sequence) {
	t.Helper()
	a, _ := divergencePair(t, n, 0, seed)
	s := a.String()
	b, err := fastlsa.NewSequence("rotated", s[k:]+s[:k], nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestAutoRouting is the acceptance anchor: under AlgoAuto a ≥95%-identity
// DNA pair runs on WFA, a ≤70%-identity pair on FastLSA, with the decision
// reported through Options.Route and a backend.route trace span — and the
// WFA-routed run returns the same optimal score as the kernel layer.
func TestAutoRouting(t *testing.T) {
	matrix, gap := fastlsa.DNASimple, fastlsa.Linear(-4)

	t.Run("high-identity-to-wfa", func(t *testing.T) {
		a, b := divergencePair(t, 2000, 0.02, 51)
		tr := fastlsa.NewTrace(0)
		var route fastlsa.RouteInfo
		got, err := fastlsa.Align(a, b, fastlsa.Options{
			Matrix: matrix, Gap: gap, Route: &route, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if route.Backend != "wfa" || route.Reason != backend.ReasonLowDivergence {
			t.Fatalf("route %+v", route)
		}
		if route.Identity < backend.RouteIdentityThreshold {
			t.Fatalf("identity estimate %.3f below threshold", route.Identity)
		}
		want, err := fastlsa.Score(a, b, fastlsa.Options{Matrix: matrix, Gap: gap})
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want {
			t.Fatalf("wfa-routed score %d, kernel score %d", got.Score, want)
		}
		found := false
		for _, s := range tr.Spans() {
			if s.Name == fastlsa.SpanNameBackendRoute {
				found = true
				if s.Tags.Backend != "wfa" || s.Tags.Reason != backend.ReasonLowDivergence {
					t.Fatalf("span tags %+v", s.Tags)
				}
			}
		}
		if !found {
			t.Fatal("no backend.route span recorded")
		}
	})

	t.Run("high-divergence-to-fastlsa", func(t *testing.T) {
		a, b := divergencePair(t, 2000, 0.30, 52)
		var route fastlsa.RouteInfo
		if _, err := fastlsa.Align(a, b, fastlsa.Options{
			Matrix: matrix, Gap: gap, Route: &route,
		}); err != nil {
			t.Fatal(err)
		}
		if route.Backend != "fastlsa" || route.Reason != backend.ReasonHighDivergence {
			t.Fatalf("route %+v", route)
		}
	})

	t.Run("explicit-params-pin-fastlsa", func(t *testing.T) {
		a, b := divergencePair(t, 2000, 0.02, 53)
		var route fastlsa.RouteInfo
		if _, err := fastlsa.Align(a, b, fastlsa.Options{
			Matrix: matrix, Gap: gap, K: 8, Route: &route,
		}); err != nil {
			t.Fatal(err)
		}
		if route.Backend != "fastlsa" || route.Reason != backend.ReasonExplicitParams {
			t.Fatalf("route %+v", route)
		}
	})

	t.Run("ends-free-pins-fastlsa", func(t *testing.T) {
		a, b := divergencePair(t, 2000, 0.02, 54)
		var route fastlsa.RouteInfo
		if _, err := fastlsa.Align(a, b, fastlsa.Options{
			Matrix: matrix, Gap: gap, Mode: fastlsa.ModeOverlap, Route: &route,
		}); err != nil {
			t.Fatal(err)
		}
		if route.Backend != "fastlsa" || route.Reason != backend.ReasonEndsFree {
			t.Fatalf("route %+v", route)
		}
	})

	t.Run("non-uniform-matrix-pins-fastlsa", func(t *testing.T) {
		a, b, err := fastlsa.HomologousPair(500, fastlsa.Protein, fastlsa.MutationModel{SubstitutionRate: 0.02}, 55)
		if err != nil {
			t.Fatal(err)
		}
		var route fastlsa.RouteInfo
		if _, err := fastlsa.Align(a, b, fastlsa.Options{
			Matrix: fastlsa.BLOSUM62, Route: &route,
		}); err != nil {
			t.Fatal(err)
		}
		if route.Backend != "fastlsa" || route.Reason != backend.ReasonIncompatibleScoring {
			t.Fatalf("route %+v", route)
		}
	})
}

// TestAutoBudgetFallback: an auto-routed WFA run that outgrows the memory
// budget reruns on budget-planned FastLSA instead of failing, reporting the
// budget-fallback reason, and still returns the optimal score.
func TestAutoBudgetFallback(t *testing.T) {
	a, b := rotatedPair(t, 2000, 500, 61)
	var route fastlsa.RouteInfo
	opt := fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
		MemoryBudget: 20_000, Route: &route,
	}
	got, err := fastlsa.Align(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if route.Backend != "fastlsa" || route.Reason != backend.ReasonBudgetFallback {
		t.Skipf("WFA fit the budget on this pair (route %+v); fallback not exercised", route)
	}
	want, err := fastlsa.Score(a, b, fastlsa.Options{Matrix: opt.Matrix, Gap: opt.Gap})
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want {
		t.Fatalf("fallback score %d, kernel score %d", got.Score, want)
	}
}

// TestBudgetFallbackLogsReroute: the budget fallback's re-route is logged
// as route.budget-fallback + route events, not as a second, zero-length
// backend.route span. The rotated pair routes to WFA, whose wavefronts
// outgrow a budget planned FastLSA fits.
func TestBudgetFallbackLogsReroute(t *testing.T) {
	a, b := rotatedPair(t, 2000, 500, 61)
	var route fastlsa.RouteInfo
	tr, rec := fastlsa.NewTrace(0), fastlsa.NewRecorder(0)
	if _, err := fastlsa.Align(a, b, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
		MemoryBudget: 20_000, Route: &route, Trace: tr, Recorder: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if route.Reason != backend.ReasonBudgetFallback {
		t.Skipf("no budget fallback on this pair (route %+v)", route)
	}
	routeSpans := 0
	for _, s := range tr.Spans() {
		if s.Name == fastlsa.SpanNameBackendRoute {
			routeSpans++
		}
	}
	if routeSpans != 1 {
		t.Errorf("%d backend.route spans, want 1 (the original routing)", routeSpans)
	}
	var kinds []string
	for _, e := range rec.Snapshot().Events {
		if e.Kind == obs.EvRoute || e.Kind == obs.EvBudgetFallback {
			kinds = append(kinds, e.Kind+"/"+e.Extra)
		}
	}
	want := []string{obs.EvRoute + "/" + backend.ReasonLowDivergence, obs.EvBudgetFallback + "/", obs.EvRoute + "/" + backend.ReasonBudgetFallback}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("routing events %v, want %v", kinds, want)
	}
}

// TestExplicitWFA covers the forced-backend path: AlgoWFA serves uniform
// DNA scoring, rejects non-uniform matrices with ErrInvalidInput, and
// rejects ends-free modes like the other global-only backends.
func TestExplicitWFA(t *testing.T) {
	a, b := divergencePair(t, 400, 0.05, 71)
	var route fastlsa.RouteInfo
	got, err := fastlsa.Align(a, b, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
		Algorithm: fastlsa.AlgoWFA, Route: &route,
	})
	if err != nil {
		t.Fatal(err)
	}
	if route.Backend != "wfa" || route.Reason != backend.ReasonExplicit {
		t.Fatalf("route %+v", route)
	}
	want, err := fastlsa.Score(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want {
		t.Fatalf("wfa score %d, kernel score %d", got.Score, want)
	}

	pa, pb, err := fastlsa.HomologousPair(200, fastlsa.Protein, fastlsa.MutationModel{SubstitutionRate: 0.05}, 72)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fastlsa.Align(pa, pb, fastlsa.Options{
		Matrix: fastlsa.BLOSUM62, Algorithm: fastlsa.AlgoWFA,
	}); !errors.Is(err, fastlsa.ErrInvalidInput) {
		t.Fatalf("non-uniform matrix error %v", err)
	}
	if _, err := fastlsa.Align(a, b, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Algorithm: fastlsa.AlgoWFA, Mode: fastlsa.ModeOverlap,
	}); !errors.Is(err, fastlsa.ErrInvalidInput) {
		t.Fatalf("ends-free wfa error %v", err)
	}
}

// TestWFADifferentialFacade reruns the WFA-vs-kernel differential at the
// facade level across divergence levels (the internal/wfa suite covers the
// kernel directly; this pins the facade threading).
func TestWFADifferentialFacade(t *testing.T) {
	for _, d := range []float64{0.01, 0.1, 0.3} {
		t.Run(fmt.Sprintf("div=%.2f", d), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				a, b, err := seq.HomologousPair(300, seq.DNA, seq.MutationModel{
					SubstitutionRate: d, InsertionRate: d / 10, DeletionRate: d / 10,
					MaxIndelRun: 4, IndelExtend: 0.5,
				}, seed)
				if err != nil {
					t.Fatal(err)
				}
				opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Algorithm: fastlsa.AlgoWFA}
				got, err := fastlsa.Align(a, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fastlsa.Score(a, b, fastlsa.Options{Matrix: opt.Matrix, Gap: opt.Gap})
				if err != nil {
					t.Fatal(err)
				}
				if got.Score != want {
					t.Fatalf("seed %d: wfa %d, kernel %d", seed, got.Score, want)
				}
			}
		})
	}
}

// TestEntryRoutes: every facade entry point routes once, before its first
// cell. Each fills Options.Route and records exactly one backend.route span
// and one route event; the kinds that run no backend report none.
func TestEntryRoutes(t *testing.T) {
	a, b := divergencePair(t, 300, 0.10, 81)
	for _, tc := range []struct {
		name            string
		algo            fastlsa.Algorithm
		run             func(fastlsa.Options) error
		backend, reason string
	}{
		{"align", fastlsa.AlgoAuto, func(o fastlsa.Options) error {
			_, err := fastlsa.Align(a, b, o)
			return err
		}, backend.NameFastLSA, backend.ReasonHighDivergence},
		{"local", fastlsa.AlgoAuto, func(o fastlsa.Options) error {
			_, err := fastlsa.AlignLocal(a, b, o)
			return err
		}, backend.NameFastLSA, backend.ReasonLocal},
		{"local/fm", fastlsa.AlgoFullMatrix, func(o fastlsa.Options) error {
			_, err := fastlsa.AlignLocal(a, b, o)
			return err
		}, backend.NameFullMatrix, backend.ReasonExplicit},
		{"banded/0", fastlsa.AlgoAuto, func(o fastlsa.Options) error {
			_, err := fastlsa.AlignBanded(a, b, o, 0)
			return err
		}, backend.NameFastLSA, backend.ReasonBanded},
		{"banded/40", fastlsa.AlgoAuto, func(o fastlsa.Options) error {
			_, err := fastlsa.AlignBanded(a, b, o, 40)
			return err
		}, "", backend.ReasonBanded},
		{"score", fastlsa.AlgoHirschberg, func(o fastlsa.Options) error {
			_, err := fastlsa.Score(a, b, o)
			return err
		}, "", backend.ReasonScoreOnly},
	} {
		var route fastlsa.RouteInfo
		tr, rec := fastlsa.NewTrace(0), fastlsa.NewRecorder(0)
		if err := tc.run(fastlsa.Options{
			Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Algorithm: tc.algo,
			Route: &route, Trace: tr, Recorder: rec,
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if route.Backend != tc.backend || route.Reason != tc.reason {
			t.Errorf("%s: route %+v, want %s/%s", tc.name, route, tc.backend, tc.reason)
		}
		spans, events := 0, 0
		for _, s := range tr.Spans() {
			if s.Name == fastlsa.SpanNameBackendRoute {
				spans++
			}
		}
		for _, e := range rec.Snapshot().Events {
			if e.Kind == obs.EvRoute {
				events++
			}
		}
		if spans != 1 || events != 1 {
			t.Errorf("%s: %d backend.route spans and %d route events, want 1 and 1", tc.name, spans, events)
		}
	}
}
