package backend_test

import (
	"testing"

	"fastlsa/internal/backend"
	"fastlsa/internal/fm"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

// TestRegistryShape pins the registration order and alias sets the facade's
// Algorithm enum is derived from.
func TestRegistryShape(t *testing.T) {
	want := []string{
		backend.NameFastLSA,
		backend.NameFullMatrix,
		backend.NameHirschberg,
		backend.NameCompact,
		backend.NameWFA,
	}
	infos := backend.All()
	if len(infos) != len(want) {
		t.Fatalf("registry has %d backends, want %d", len(infos), len(want))
	}
	for i, n := range want {
		if infos[i].Name != n {
			t.Fatalf("slot %d is %q, want %q", i, infos[i].Name, n)
		}
	}
	for _, info := range infos {
		if info.Impl.Name() != info.Name {
			t.Fatalf("backend %q reports name %q", info.Name, info.Impl.Name())
		}
		if info.Summary == "" {
			t.Fatalf("backend %q has no summary", info.Name)
		}
		for _, alias := range append([]string{info.Name}, info.Aliases...) {
			impl, ok := backend.Lookup(alias)
			if !ok || impl != info.Impl {
				t.Fatalf("lookup %q does not resolve to backend %q", alias, info.Name)
			}
		}
	}
	if _, ok := backend.Lookup("auto"); ok {
		t.Fatal("auto is the router, not a backend")
	}
}

// TestCapabilities pins the capability matrix documented in
// docs/BACKENDS.md.
func TestCapabilities(t *testing.T) {
	caps := map[string]backend.Capabilities{}
	for _, info := range backend.All() {
		caps[info.Name] = info.Impl.Caps()
	}
	if c := caps[backend.NameFastLSA]; !c.EndsFree || !c.AffineGaps || !c.LinearSpace || !c.Parallel || !c.PlansToBudget || c.UniformScoresOnly {
		t.Fatalf("fastlsa caps %+v", c)
	}
	if c := caps[backend.NameFullMatrix]; !c.EndsFree || !c.AffineGaps || c.LinearSpace || !c.Parallel {
		t.Fatalf("fm caps %+v", c)
	}
	if c := caps[backend.NameHirschberg]; c.EndsFree || !c.AffineGaps || !c.LinearSpace {
		t.Fatalf("hirschberg caps %+v", c)
	}
	if c := caps[backend.NameCompact]; c.EndsFree || c.AffineGaps || c.LinearSpace {
		t.Fatalf("compact caps %+v", c)
	}
	if c := caps[backend.NameWFA]; c.EndsFree || !c.AffineGaps || !c.UniformScoresOnly {
		t.Fatalf("wfa caps %+v", c)
	}
	// Local alignment is declared by implementing backend.LocalAligner.
	for _, info := range backend.All() {
		_, local := info.Impl.(backend.LocalAligner)
		if want := info.Name == backend.NameFastLSA || info.Name == backend.NameFullMatrix; local != want {
			t.Fatalf("%s serves local alignment: %t, want %t", info.Name, local, want)
		}
	}
}

// TestFMParallelEdges: the parallel fm backend aligns an empty sequence
// along the boundary under either gap model, as the sequential one does.
func TestFMParallelEdges(t *testing.T) {
	fmb, _ := backend.Lookup(backend.NameFullMatrix)
	empty := seq.MustNew("e", "", seq.DNA)
	b := seq.MustNew("b", "ACG", seq.DNA)
	for _, gap := range []scoring.Gap{scoring.Linear(-2), scoring.Affine(-5, -1)} {
		want, err := fm.Align(empty, b, scoring.DNAStrict, gap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fmb.Align(empty, b, backend.Request{Matrix: scoring.DNAStrict, Gap: gap, Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", gap, err)
		}
		if res.Path.String() != "LLL" || res.Score != want.Score {
			t.Fatalf("%v: path %q score %d, want LLL score %d", gap, res.Path, res.Score, want.Score)
		}
	}
}
