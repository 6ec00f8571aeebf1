package memory_test

import (
	"errors"
	"testing"

	"fastlsa/internal/fault"
	"fastlsa/internal/memory"
)

// TestInjectedReserveFault: an armed memory.reserve site makes Reserve fail
// with a transient (retryable, non-ErrExceeded) error — on limited and
// unlimited budgets alike — without reserving anything.
func TestInjectedReserveFault(t *testing.T) {
	if err := fault.Arm("memory.reserve:error", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	b, err := memory.NewBudget(100)
	if err != nil {
		t.Fatal(err)
	}
	rerr := b.Reserve(10)
	if !errors.Is(rerr, fault.ErrInjected) {
		t.Fatalf("Reserve err %v does not wrap fault.ErrInjected", rerr)
	}
	if errors.Is(rerr, memory.ErrExceeded) {
		t.Fatalf("injected fault %v masquerades as ErrExceeded", rerr)
	}
	if used := b.Used(); used != 0 {
		t.Fatalf("failed reservations left %d units reserved", used)
	}

	// The site strikes even on the nil (unlimited) budget, so chaos runs
	// exercise callers that never configured a cap.
	var unlimited *memory.Budget
	if err := unlimited.Reserve(10); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("unlimited Reserve err = %v, want injected", err)
	}

	fault.Disarm()
	if err := b.Reserve(10); err != nil {
		t.Fatalf("Reserve after Disarm: %v", err)
	}
	b.Release(10)
}

// TestDisarmedReserveZeroAlloc pins the hot-path cost of the injection
// point: Reserve on the unlimited budget stays allocation-free.
func TestDisarmedReserveZeroAlloc(t *testing.T) {
	fault.Disarm()
	var b *memory.Budget
	allocs := testing.AllocsPerRun(1000, func() {
		if err := b.Reserve(8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Reserve allocates %.1f allocs/op, want 0", allocs)
	}
}
