package memory_test

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"fastlsa/internal/memory"
)

func TestBudgetBasics(t *testing.T) {
	b, err := memory.NewBudget(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(50); err == nil {
		t.Fatal("over-reservation must fail")
	} else if !errors.Is(err, memory.ErrExceeded) {
		t.Fatalf("error %v does not wrap ErrExceeded", err)
	}
	if err := b.Reserve(40); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 100 || b.Available() != 0 {
		t.Fatalf("used=%d available=%d", b.Used(), b.Available())
	}
	b.Release(100)
	if b.Used() != 0 || b.Peak() != 100 {
		t.Fatalf("used=%d peak=%d", b.Used(), b.Peak())
	}
}

func TestBudgetValidation(t *testing.T) {
	if _, err := memory.NewBudget(0); err == nil {
		t.Fatal("zero budget must fail")
	}
	if _, err := memory.NewBudget(-5); err == nil {
		t.Fatal("negative budget must fail")
	}
	b, _ := memory.NewBudget(10)
	if err := b.Reserve(-1); err == nil {
		t.Fatal("negative reserve must fail")
	}
}

func TestBudgetUnderflowPanics(t *testing.T) {
	b, _ := memory.NewBudget(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on underflow")
		}
	}()
	b.Release(1)
}

func TestNilBudgetUnlimited(t *testing.T) {
	var b *memory.Budget
	if !b.Unlimited() {
		t.Fatal("nil budget must be unlimited")
	}
	if err := b.Reserve(1 << 60); err != nil {
		t.Fatal(err)
	}
	b.Release(1 << 60)
	if b.Used() != 0 || b.Total() != 0 || b.Peak() != 0 {
		t.Fatal("nil budget accounting must be zero")
	}
	if b.String() != "budget(unlimited)" {
		t.Fatalf("string = %q", b.String())
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b, _ := memory.NewBudget(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := b.Reserve(5); err == nil {
					b.Release(5)
				}
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Fatalf("used = %d after balanced ops", b.Used())
	}
	if b.Peak() > 1000 {
		t.Fatalf("peak %d exceeded total", b.Peak())
	}
}

// TestBudgetNeverOvercommits: under arbitrary reserve sequences the used
// count never exceeds the total.
func TestBudgetNeverOvercommits(t *testing.T) {
	f := func(sizes []uint16) bool {
		b, _ := memory.NewBudget(1 << 14)
		for _, s := range sizes {
			_ = b.Reserve(int64(s))
			if b.Used() > b.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRowPool(t *testing.T) {
	p := memory.NewRowPool()
	s := p.GetFull(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	p.Put(s)
	s2 := p.Get(50)
	if len(s2) != 0 || cap(s2) < 50 {
		t.Fatalf("len=%d cap=%d", len(s2), cap(s2))
	}
	// nil pool is usable.
	var np *memory.RowPool
	if got := np.GetFull(7); len(got) != 7 {
		t.Fatalf("nil pool GetFull len = %d", len(got))
	}
	np.Put(got7())
}

func got7() []int64 { return make([]int64, 7) }

// TestRowPoolSteadyStateAllocs: a Get/Put cycle over mixed sizes (a
// FastLSA Base Case buffer and two edge rows) finds every row in the pool
// once warm, so no pooled row is dropped and re-allocated.
func TestRowPoolSteadyStateAllocs(t *testing.T) {
	p := memory.NewRowPool()
	cycle := func() {
		base, r1, r2 := p.GetFull(64*1024), p.GetFull(1601), p.GetFull(1601)
		p.Put(r2)
		p.Put(r1)
		p.Put(base)
	}
	// Above the pooled cap a row is neither rounded up nor kept.
	const big = 1<<21 + 3
	if s := p.Get(big); cap(s) != big {
		t.Fatalf("Get(%d) cap = %d, want exactly %d", big, cap(s), big)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state Get/Put cycle allocates %.1f per run, want 0", allocs)
	}
}
