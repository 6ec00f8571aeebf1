package fastlsa_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastlsa"
)

func paperPair(t *testing.T) (*fastlsa.Sequence, *fastlsa.Sequence) {
	t.Helper()
	a, err := fastlsa.NewSequence("a", "TDVLKAD", fastlsa.Table1Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastlsa.NewSequence("b", "TLDKLLKD", fastlsa.Table1Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestAllEnginesAgreeOnPaperExample runs the Figure 1 example through every
// engine in the public API.
func TestAllEnginesAgreeOnPaperExample(t *testing.T) {
	a, b := paperPair(t)
	for _, algo := range []fastlsa.Algorithm{
		fastlsa.AlgoAuto, fastlsa.AlgoFastLSA, fastlsa.AlgoFullMatrix, fastlsa.AlgoHirschberg,
	} {
		al, err := fastlsa.Align(a, b, fastlsa.Options{
			Matrix:    fastlsa.Table1,
			Gap:       fastlsa.Linear(-10),
			Algorithm: algo,
			Workers:   1,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if al.Score != 82 {
			t.Fatalf("%v: score = %d, want 82", algo, al.Score)
		}
	}
}

func TestDefaultsAndValidation(t *testing.T) {
	a, b := paperPair(t)
	// Missing matrix.
	if _, err := fastlsa.Align(a, b, fastlsa.Options{}); err == nil {
		t.Fatal("missing matrix must fail")
	}
	// Zero Gap defaults to the paper's -10.
	al, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.Table1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if al.Score != 82 {
		t.Fatalf("default-gap score = %d", al.Score)
	}
	// Negative budget rejected.
	if _, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.Table1, MemoryBudget: -1}); err == nil {
		t.Fatal("negative budget must fail")
	}
	// Invalid gap rejected.
	if _, err := fastlsa.Align(a, b, fastlsa.Options{Matrix: fastlsa.Table1, Gap: fastlsa.Linear(1)}); err == nil {
		t.Fatal("positive gap must fail")
	}
}

func TestScoreMatchesAlign(t *testing.T) {
	x, y, err := fastlsa.HomologousPair(300, fastlsa.Protein, fastlsa.DefaultHomology, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gap := range []fastlsa.Gap{fastlsa.Linear(-5), fastlsa.Affine(-11, -1)} {
		opt := fastlsa.Options{Matrix: fastlsa.BLOSUM62, Gap: gap, Workers: 1}
		al, err := fastlsa.Align(x, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := fastlsa.Score(x, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sc != al.Score {
			t.Fatalf("gap %v: Score=%d, Align=%d", gap, sc, al.Score)
		}
		if got := al.Rescore(fastlsa.BLOSUM62, gap); got != al.Score {
			t.Fatalf("gap %v: rescore %d != %d", gap, got, al.Score)
		}
	}
}

// TestBudgetSemantics: FM must be refused under a tight budget where FastLSA
// (auto) succeeds — the adaptivity claim of the paper in API form.
func TestBudgetSemantics(t *testing.T) {
	x, y, err := fastlsa.HomologousPair(1500, fastlsa.DNA, fastlsa.DefaultHomology, 4)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(300_000) // ~13% of the ~2.25M-entry full matrix
	_, err = fastlsa.Align(x, y, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
		Algorithm: fastlsa.AlgoFullMatrix, MemoryBudget: budget, Workers: 1,
	})
	if !errors.Is(err, fastlsa.ErrBudgetTooSmall) {
		t.Fatalf("FM under budget: err = %v, want ErrBudgetTooSmall", err)
	}
	al, err := fastlsa.Align(x, y, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
		Algorithm: fastlsa.AlgoAuto, MemoryBudget: budget, Workers: 1,
	})
	if err != nil {
		t.Fatalf("FastLSA under the same budget: %v", err)
	}
	ref, err := fastlsa.Align(x, y, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
		Algorithm: fastlsa.AlgoFullMatrix, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if al.Score != ref.Score {
		t.Fatalf("budgeted score %d != unbudgeted %d", al.Score, ref.Score)
	}
}

func TestParallelEngines(t *testing.T) {
	x, y, err := fastlsa.HomologousPair(800, fastlsa.DNA, fastlsa.DefaultHomology, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Workers: 1}
	ref, err := fastlsa.Align(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []fastlsa.Algorithm{fastlsa.AlgoFastLSA, fastlsa.AlgoFullMatrix} {
		opt := base
		opt.Algorithm = algo
		opt.Workers = 4
		got, err := fastlsa.Align(x, y, opt)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got.Score != ref.Score {
			t.Fatalf("%v parallel: score %d != %d", algo, got.Score, ref.Score)
		}
	}
}

func TestAlignLocalFacade(t *testing.T) {
	island := fastlsa.RandomSequence("i", 60, fastlsa.DNA, 71).String()
	a, err := fastlsa.NewSequence("a", fastlsa.RandomSequence("", 80, fastlsa.DNA, 72).String()+island, fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastlsa.NewSequence("b", island+fastlsa.RandomSequence("", 90, fastlsa.DNA, 73).String(), fastlsa.DNA)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Workers: 1}
	loc1, err := fastlsa.AlignLocal(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = fastlsa.AlgoFullMatrix
	loc2, err := fastlsa.AlignLocal(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if loc1.Score != loc2.Score {
		t.Fatalf("local engines disagree: %d vs %d", loc1.Score, loc2.Score)
	}
	if loc1.Score < 250 {
		t.Fatalf("island score %d too low", loc1.Score)
	}
	opt.Algorithm = fastlsa.AlgoHirschberg
	if _, err := fastlsa.AlignLocal(a, b, opt); err == nil {
		t.Fatal("hirschberg local must be rejected")
	}
}

func TestAlgorithmParsing(t *testing.T) {
	for name, want := range map[string]fastlsa.Algorithm{
		"auto": fastlsa.AlgoAuto, "fastlsa": fastlsa.AlgoFastLSA,
		"fm": fastlsa.AlgoFullMatrix, "hirschberg": fastlsa.AlgoHirschberg,
		"nw": fastlsa.AlgoFullMatrix, "myers-miller": fastlsa.AlgoHirschberg,
	} {
		got, err := fastlsa.ParseAlgorithm(name)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := fastlsa.ParseAlgorithm("quantum"); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if fastlsa.AlgoFastLSA.String() != "fastlsa" {
		t.Fatal("stringer broken")
	}
}

func TestFacadeIO(t *testing.T) {
	a, _ := paperPair(t)
	var buf bytes.Buffer
	if err := fastlsa.WriteFASTA(&buf, 0, a); err != nil {
		t.Fatal(err)
	}
	// Table1Alphabet sequences need the matching alphabet to re-parse.
	got, err := fastlsa.ReadFASTA(strings.NewReader(buf.String()), fastlsa.Table1Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].String() != a.String() {
		t.Fatalf("round trip %q", got[0].String())
	}
	if _, err := fastlsa.MatrixByName("blosum62"); err != nil {
		t.Fatal(err)
	}
	if _, err := fastlsa.ParseAlphabet("dna"); err != nil {
		t.Fatal(err)
	}
}

func ExampleAlign() {
	a, _ := fastlsa.NewSequence("query", "TDVLKAD", fastlsa.Table1Alphabet)
	b, _ := fastlsa.NewSequence("target", "TLDKLLKD", fastlsa.Table1Alphabet)
	al, err := fastlsa.Align(a, b, fastlsa.Options{
		Matrix: fastlsa.Table1,
		Gap:    fastlsa.Linear(-10),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("score:", al.Score)
	// Output: score: 82
}
