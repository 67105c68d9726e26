// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with concurrent_test.go.

package sfm

import (
	"sync"

	"xfm/internal/dram"
)

// ConcurrentHeap wraps a Heap with a mutex so multiple application
// goroutines can share one far-memory heap — the multi-threaded web
// front-end shape. The coarse lock matches the reference AIFM
// runtime's per-heap synchronization granularity for swap operations;
// page data returned by Touch is copied so callers never share the
// internal buffer across the lock boundary. Fine-grained parallelism
// lives a layer below: a heap backed by a ShardedBackend still runs
// its batch (de)compression on every core via the engine in
// engine.go, since this lock is held only around the heap's own
// bookkeeping and the per-page backend calls.
type ConcurrentHeap struct {
	mu   sync.Mutex
	heap *Heap
}

// NewConcurrentHeap wraps heap.
func NewConcurrentHeap(h *Heap) *ConcurrentHeap {
	return &ConcurrentHeap{heap: h}
}

// Alloc allocates a new resident page.
func (c *ConcurrentHeap) Alloc(now dram.Ps, data []byte) PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heap.Alloc(now, data)
}

// Touch accesses a page and returns a copy of its content.
func (c *ConcurrentHeap) Touch(now dram.Ps, id PageID) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, err := c.heap.Touch(now, id)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Write stores data into a resident page (touching it in first when
// needed).
func (c *ConcurrentHeap) Write(now dram.Ps, id PageID, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, err := c.heap.Touch(now, id)
	if err != nil {
		return err
	}
	copy(buf, data)
	return nil
}

// SwapOut demotes a page.
func (c *ConcurrentHeap) SwapOut(now dram.Ps, id PageID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heap.SwapOut(now, id)
}

// Prefetch promotes a page with the offload hint.
func (c *ConcurrentHeap) Prefetch(now dram.Ps, id PageID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heap.Prefetch(now, id)
}

// Resident reports residency.
func (c *ConcurrentHeap) Resident(id PageID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heap.Resident(id)
}

// Stats snapshots the heap counters.
func (c *ConcurrentHeap) Stats() HeapStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heap.Stats()
}
