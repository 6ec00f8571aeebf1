package memory

import (
	"math/bits"
	"sync"
)

// maxPooledClass bounds the pooled rows at 1<<maxPooledClass entries (8 MiB):
// every Base Case buffer core.PlanOptions sizes (at most 16·64Ki entries)
// is pooled, while a whole-matrix plane set is allocated per run and left
// to the collector rather than parked here.
const maxPooledClass = 20

// RowPool recycles int64 row buffers between DP passes. FastLSA's recursion
// allocates and frees many rows of similar sizes; pooling them keeps the
// allocator out of the inner loop without changing the budget accounting
// (budgets charge logical entries, pools manage physical slices).
//
// Rows live in power-of-two size classes. Get(n) rounds n up to its class
// and takes a row from that class alone, so every row it finds is large
// enough and none is dropped because it was too small. Requests above
// 1<<maxPooledClass entries are neither rounded up nor pooled.
type RowPool struct {
	// classes[c] holds *[]int64 of capacity >= 1<<c — pointers, so Put does
	// not box a slice header into an interface on every call (that boxing
	// is itself an allocation, which would defeat the pool on the hot path).
	classes [maxPooledClass + 1]sync.Pool
	// hdrs recycles the header boxes emptied by Get so Put can fill one
	// without allocating.
	hdrs sync.Pool
}

// Shared is the process-wide row pool every solver draws from, so repeated
// runs recycle scratch rows across calls and packages.
var Shared = NewRowPool()

// NewRowPool returns an empty pool.
func NewRowPool() *RowPool { return &RowPool{} }

// Get returns a zero-length slice with capacity >= n. The contents are
// unspecified; callers must initialise every entry they read.
func (p *RowPool) Get(n int) []int64 {
	c := bits.Len(uint(max(n, 1) - 1)) // ceil(log2 n)
	if p == nil || c > maxPooledClass {
		return make([]int64, 0, n)
	}
	if v, ok := p.classes[c].Get().(*[]int64); ok {
		s := *v
		*v = nil
		p.hdrs.Put(v)
		return s[:0]
	}
	return make([]int64, 0, 1<<c)
}

// GetFull returns a length-n slice (contents unspecified).
func (p *RowPool) GetFull(n int) []int64 { return p.Get(n)[:n] }

// Put recycles a slice obtained from Get into the largest class its
// capacity covers.
func (p *RowPool) Put(s []int64) {
	if p == nil || cap(s) == 0 || cap(s) > 1<<maxPooledClass {
		return
	}
	v, ok := p.hdrs.Get().(*[]int64)
	if !ok {
		v = new([]int64)
	}
	*v = s[:0]
	p.classes[bits.Len(uint(cap(s)))-1].Put(v) // floor(log2 cap)
}
