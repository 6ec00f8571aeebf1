package fastlsa_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"testing"
	"time"

	"fastlsa"
	"fastlsa/internal/obs"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// TestCPUProfileCarriesBackendPhaseLabels is the CPU-attribution acceptance
// test: a CPU profile captured during mixed FastLSA/WFA load must attribute
// samples to both backends and their phases via pprof labels. The profile is
// a gzipped protobuf; with no profile decoder available, the assertion scans
// the decompressed string table — label keys and values are plain strings
// there, so their presence proves labelled samples were taken.
func TestCPUProfileCarriesBackendPhaseLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("burns ~1.5s of CPU to collect profile samples")
	}
	obs.SetProfLabels(true)
	defer obs.SetProfLabels(false)

	a, b := testutil.HomologousPair(2000, seq.DNA, 3)
	sa, err := fastlsa.NewSequence("a", a.String(), fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := fastlsa.NewSequence("b", b.String(), fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	// ~700ms of wall time per backend: at the default 100 Hz sampling rate
	// that is on the order of 70 samples each, far more than the one labelled
	// sample per backend the assertion needs.
	for _, algo := range []fastlsa.Algorithm{fastlsa.AlgoFastLSA, fastlsa.AlgoWFA} {
		for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
			if _, err := fastlsa.Align(sa, sb, fastlsa.Options{
				Matrix:    fastlsa.DNASimple,
				Gap:       fastlsa.Linear(-4),
				Algorithm: algo,
			}); err != nil {
				pprof.StopCPUProfile()
				t.Fatalf("align (%v): %v", algo, err)
			}
		}
	}
	pprof.StopCPUProfile()

	gz, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatalf("decompress profile: %v", err)
	}

	for _, want := range []string{
		"backend", "phase", // the label keys
		"fastlsa", "wfa", // both backends' label values
		obs.SpanGridFill, // a FastLSA phase
		obs.SpanWFABi,    // a WFA phase (AlgoWFA's global mode runs BiWFA)
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile string table lacks %q: labelled samples missing", want)
		}
	}
}

// TestPhaseSecondsWithinWallTime: every phase is bracketed once and no phase
// opens inside another, so the phase seconds one run adds to the
// process-wide table never exceed that run's wall time. It covers FastLSA
// (grid fills, base cases and tracebacks, with a parallel fill), BiWFA
// (whose base-case sub-runs open no wfa-fill/traceback phases inside
// wfa-biwfa) and an indexed search (whose FastLSA reconstructions open no
// phases inside search-reconstruct), with labels off and on.
func TestPhaseSecondsWithinWallTime(t *testing.T) {
	a, b := divergencePair(t, 3000, 0.02, 5)
	query := fastlsa.RandomSequence("query", 800, fastlsa.DNA, 11)
	db := make([]*fastlsa.Sequence, 0, 40)
	for i := 0; i < 4; i++ {
		hom, err := fastlsa.DefaultHomology.Mutate(fmt.Sprintf("hom%d", i), query, int64(20+i))
		if err != nil {
			t.Fatal(err)
		}
		db = append(db, hom)
	}
	for i := len(db); i < cap(db); i++ {
		db = append(db, fastlsa.RandomSequence(fmt.Sprintf("bg%d", i), 800, fastlsa.DNA, int64(100+i)))
	}
	ix, err := fastlsa.BuildIndex(db, 0)
	if err != nil {
		t.Fatal(err)
	}

	runs := []struct {
		name string
		run  func() error
	}{
		{"fastlsa", func() error {
			_, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
				Algorithm: fastlsa.AlgoFastLSA, Workers: 2, BaseCells: 4096})
			return err
		}},
		{"biwfa", func() error {
			_, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
				Algorithm: fastlsa.AlgoWFA})
			return err
		}},
		{"indexed-search", func() error {
			hits, err := fastlsa.Search(query, db, fastlsa.SearchOptions{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
				TopK: 4, MinScore: 200, Workers: 2, Index: ix})
			if err == nil && len(hits) == 0 {
				err = fmt.Errorf("no hits: reconstruct phase not exercised")
			}
			return err
		}},
	}
	total := func() float64 {
		sum := 0.0
		for _, p := range obs.PhaseSeconds() {
			sum += p.Seconds
		}
		return sum
	}
	for _, labels := range []bool{false, true} {
		obs.SetProfLabels(labels)
		for _, r := range runs {
			before := total()
			start := time.Now()
			if err := r.run(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			wall := time.Since(start).Seconds()
			phases := total() - before
			if phases <= 0 {
				t.Errorf("%s (labels %v): no phase seconds recorded", r.name, labels)
			}
			if phases > wall {
				t.Errorf("%s (labels %v): phase seconds %.6f exceed wall time %.6f", r.name, labels, phases, wall)
			}
		}
	}
	obs.SetProfLabels(false)
}
