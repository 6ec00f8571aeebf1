package backend_test

import (
	"testing"

	"fastlsa/internal/backend"
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
