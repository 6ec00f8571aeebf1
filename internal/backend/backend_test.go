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
	names := backend.Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d backends, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("slot %d is %q, want %q", i, names[i], n)
		}
	}
	for _, info := range backend.All() {
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
}
