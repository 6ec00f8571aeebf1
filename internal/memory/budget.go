// Package memory implements the paper's explicit memory model (§3): an
// alignment run is given RM "memory units" (DPM entries); BM of them are
// reserved up-front as the Base Case buffer and the remainder pays for grid
// caches and working rows. The Budget type does the accounting and is the
// mechanism by which FastLSA "adapts to the amount of space available".
package memory

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fastlsa/internal/fault"
)

// siteReserve is the fault-injection point on every budget reservation: an
// injected error rehearses a lost budget race (Reserve fails with a
// transient, retryable error), even on the nil/unlimited budget.
var siteReserve = fault.NewSite("memory.reserve")

// Budget tracks allocation of DPM-entry-sized units against a fixed total.
// A nil *Budget means "unlimited" and all operations succeed.
type Budget struct {
	total int64
	used  atomic.Int64
	peak  atomic.Int64
}

// ErrExceeded is returned (wrapped) when a reservation would overflow the
// budget.
var ErrExceeded = fmt.Errorf("memory: budget exceeded")

// ErrTooSmall is returned (wrapped) when a run is refused before its first
// cell because what it must hold at once exceeds the budget's total: no
// retry and no concurrent release can make it fit. It classifies the budget
// as a caller mistake, unlike ErrExceeded, which a run can meet mid-way or
// lose in a race with other holders of a shared budget.
var ErrTooSmall = errors.New("memory: budget too small for the run")

// NewBudget creates a budget of total units. total <= 0 is rejected; use a
// nil *Budget for "unlimited".
func NewBudget(total int64) (*Budget, error) {
	if total <= 0 {
		return nil, fmt.Errorf("memory: NewBudget(%d): total must be positive", total)
	}
	return &Budget{total: total}, nil
}

// Total reports the budget size (0 for the nil/unlimited budget).
func (b *Budget) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Unlimited reports whether the budget imposes no cap.
func (b *Budget) Unlimited() bool { return b == nil }

// Reserve claims n units, failing with ErrExceeded if fewer than n remain.
// Safe for concurrent use.
func (b *Budget) Reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("memory: Reserve(%d): negative size", n)
	}
	if err := siteReserve.Hit(); err != nil {
		return fmt.Errorf("memory: Reserve(%d): %w", n, err)
	}
	if b == nil {
		return nil
	}
	for {
		cur := b.used.Load()
		next := cur + n
		if next > b.total {
			return fmt.Errorf("%w: want %d units, %d of %d in use", ErrExceeded, n, cur, b.total)
		}
		if b.used.CompareAndSwap(cur, next) {
			b.observePeak(next)
			return nil
		}
	}
}

// ReserveRun is Reserve for the whole up-front charge of a run, n units: a
// charge above the total can never fit and fails with ErrTooSmall.
func (b *Budget) ReserveRun(n int64) error {
	if b != nil && n > b.total {
		return fmt.Errorf("%w: want %d units, total %d", ErrTooSmall, n, b.total)
	}
	return b.Reserve(n)
}

// Release returns n units to the budget. Releasing more than is in use is a
// programming error and panics (it would silently corrupt all later
// accounting).
func (b *Budget) Release(n int64) {
	if b == nil || n == 0 {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("memory: Release(%d): negative size", n))
	}
	if next := b.used.Add(-n); next < 0 {
		panic(fmt.Sprintf("memory: Release(%d): budget underflow (%d)", n, next))
	}
}

// Used reports units currently reserved.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Available reports units still reservable (MaxInt-ish for nil budgets).
func (b *Budget) Available() int64 {
	if b == nil {
		return int64(1) << 62
	}
	return b.total - b.used.Load()
}

// Peak reports the high-water mark of reserved units.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

func (b *Budget) observePeak(n int64) {
	for {
		cur := b.peak.Load()
		if n <= cur || b.peak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// String implements fmt.Stringer.
func (b *Budget) String() string {
	if b == nil {
		return "budget(unlimited)"
	}
	return fmt.Sprintf("budget(%d/%d used, peak %d)", b.Used(), b.total, b.Peak())
}
