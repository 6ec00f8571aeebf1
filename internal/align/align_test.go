package align_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"fastlsa/internal/align"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

func mustPath(t *testing.T, s string) align.Path {
	t.Helper()
	moves := make([]align.Move, len(s))
	for i, c := range s {
		switch c {
		case 'D':
			moves[i] = align.Diag
		case 'U':
			moves[i] = align.Up
		case 'L':
			moves[i] = align.Left
		default:
			t.Fatalf("bad move rune %q", c)
		}
	}
	return align.NewPath(moves)
}

func TestPathBasics(t *testing.T) {
	p := mustPath(t, "DULDD")
	if p.Len() != 5 {
		t.Fatalf("len = %d", p.Len())
	}
	m, n := p.Dims()
	if m != 4 || n != 4 {
		t.Fatalf("dims = %d,%d", m, n)
	}
	if p.String() != "DULDD" {
		t.Fatalf("string = %q", p.String())
	}
	if err := p.Validate(4, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(3, 4); err == nil {
		t.Fatal("wrong dims must fail validation")
	}
}

func TestBuilderReversal(t *testing.T) {
	// Trace order (backwards): L, D, U means forward path U, D, L.
	b := align.NewBuilder(3)
	b.Push(align.Left)
	b.Push(align.Diag)
	b.Push(align.Up)
	if got := b.Path().String(); got != "UDL" {
		t.Fatalf("path = %q, want UDL", got)
	}
}

func TestRowsAndStats(t *testing.T) {
	a := seq.MustNew("a", "TDVLKAD", scoring.Table1Alphabet)
	b := seq.MustNew("b", "TLDKLLKD", scoring.Table1Alphabet)
	// Paper §2.1 alignment: TLDKLLK-D / T-D-VLKAD (from b's perspective the
	// rows swap: our rows are a=TDVLKAD).
	// Path for rows=a, cols=b: D L D L D D D U D would be 7 rows/8 cols:
	// count: diag 6, up 1? Let's use the one the paper spells:
	//   a: T-D-VLKAD  (gaps where b consumes alone -> Left moves)
	//   b: TLDKLLK-D
	p := mustPath(t, "DLDLDDDUD")
	if err := p.Validate(a.Len(), b.Len()); err != nil {
		t.Fatal(err)
	}
	al, err := align.New(a, b, p, 82)
	if err != nil {
		t.Fatal(err)
	}
	rowA, rowB := al.Rows()
	if rowA != "T-D-VLKAD" || rowB != "TLDKLLK-D" {
		t.Fatalf("rows = %q / %q", rowA, rowB)
	}
	if got := al.Rescore(scoring.Table1, scoring.PaperGap); got != 82 {
		t.Fatalf("rescore = %d, want 82 (the paper's optimal score)", got)
	}
	st := al.Stats()
	if st.Columns != 9 || st.Matches != 5 {
		t.Fatalf("stats = %+v, want 9 columns / 5 matches (paper highlights 5 stars)", st)
	}
	if st.GapsA != 2 || st.GapsB != 1 {
		t.Fatalf("gaps = %d/%d", st.GapsA, st.GapsB)
	}
}

func TestNewRejectsMismatchedPath(t *testing.T) {
	a := seq.MustNew("a", "AC", seq.DNA)
	b := seq.MustNew("b", "ACG", seq.DNA)
	if _, err := align.New(a, b, mustPath(t, "DD"), 0); err == nil {
		t.Fatal("path not covering b must fail")
	}
}

func TestScorePathAffineRuns(t *testing.T) {
	a := seq.MustNew("a", "AAAA", seq.DNA)
	b := seq.MustNew("b", "AA", seq.DNA)
	m, err := scoring.Uniform(seq.DNA, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	gap := scoring.Affine(-5, -1)
	// One vertical run of 2: DDUU -> 2+2 + (open -5 + 2*-1) = -3.
	if got := align.ScorePath(a, b, mustPath(t, "DDUU"), m, gap); got != -3 {
		t.Fatalf("DDUU = %d, want -3", got)
	}
	// Split runs: DUDU -> 2+2 + 2*(-5-1) = -8.
	if got := align.ScorePath(a, b, mustPath(t, "DUDU"), m, gap); got != -8 {
		t.Fatalf("DUDU = %d, want -8", got)
	}
	// Adjacent Up and Left runs are distinct gaps.
	b2 := seq.MustNew("b2", "AAA", seq.DNA)
	if got := align.ScorePath(a, b2, mustPath(t, "DDDULL"), m, scoring.Affine(-5, -1)); got != 2*3+(-5-1)+(-5-2) {
		t.Fatalf("DDDULL = %d", got)
	}
}

func TestCIGAR(t *testing.T) {
	p := mustPath(t, "DDDUULDD")
	if got := p.CIGAR(); got != "3M2I1D2M" {
		t.Fatalf("cigar = %q", got)
	}
	back, err := align.ParseCIGAR("3M2I1D2M")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(p) {
		t.Fatalf("round trip = %q", back.String())
	}
	if _, err := align.ParseCIGAR("3M2"); err == nil {
		t.Fatal("trailing count must fail")
	}
	if _, err := align.ParseCIGAR("M"); err == nil {
		t.Fatal("op without count must fail")
	}
	if _, err := align.ParseCIGAR("0M"); err == nil {
		t.Fatal("zero run must fail")
	}
	if _, err := align.ParseCIGAR("3Q"); err == nil {
		t.Fatal("unknown op must fail")
	}
}

func TestExtendedCIGAR(t *testing.T) {
	a := seq.MustNew("a", "ACGT", seq.DNA)
	b := seq.MustNew("b", "AGGT", seq.DNA)
	al, err := align.New(a, b, mustPath(t, "DDDD"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := al.ExtendedCIGAR(); got != "1=1X2=" {
		t.Fatalf("extended cigar = %q", got)
	}
	// '=' and 'X' parse back as Diag.
	back, err := align.ParseCIGAR("1=1X2=")
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != "DDDD" {
		t.Fatalf("parsed = %q", back.String())
	}
}

func TestCIGARRoundTripQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		moves := make([]align.Move, len(raw))
		for i, v := range raw {
			moves[i] = align.Move(v % 3)
		}
		p := align.NewPath(moves)
		back, err := align.ParseCIGAR(p.CIGAR())
		return err == nil && back.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFprint(t *testing.T) {
	a := seq.MustNew("seqA", "ACGTACGTACGT", seq.DNA)
	b := seq.MustNew("seqB", "ACGTTCGTACGT", seq.DNA)
	al, err := align.New(a, b, mustPath(t, "DDDDDDDDDDDD"), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := al.Fprint(&buf, align.FormatOptions{Width: 8, Matrix: scoring.DNASimple, ShowRuler: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"seqA", "seqB", "|", "score=7"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
	// Without a matrix, identities render as '*' (paper style).
	buf.Reset()
	if err := al.Fprint(&buf, align.FormatOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Fatalf("paper-style midline missing:\n%s", buf.String())
	}
}

func TestMoveString(t *testing.T) {
	if align.Diag.String() != "D" || align.Up.String() != "U" || align.Left.String() != "L" {
		t.Fatal("move rendering broken")
	}
	if !strings.Contains(align.Move(9).String(), "9") {
		t.Fatal("unknown move rendering broken")
	}
}
