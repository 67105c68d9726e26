// Package parallel provides the small worker-pool primitive shared by
// the batched offload pipeline: sfm batch swap operations, xfm batch
// offload submission, and the experiments runner all fan work out
// through ForEach. Keeping one implementation makes the concurrency
// shape of the whole stack auditable in one place.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"xfm/internal/telemetry"
)

// Workers resolves a worker-count request: values > 0 pass through,
// anything else means "one worker per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) using up to workers
// goroutines and returns when all calls have completed. workers ≤ 0
// means GOMAXPROCS; a single worker (or n ≤ 1) runs inline with no
// goroutines, so serial and parallel executions share one code path.
//
// Indexes are claimed from an atomic counter in chunks (larger batches
// claim larger chunks, capped so the tail still balances), so fn must
// not depend on which goroutine runs which index — only per-index
// state may be written without synchronization. Panics inside fn
// propagate to the caller (the first one observed; others are
// dropped).
//
// ForEach is on the batch hot path: its only allocations are the
// one-time pool spin-up (worker closure + goroutines), amortized over
// the whole batch; the per-index loop allocates nothing.
//
//xfm:hotpath
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i) //xfm:ignore hotpath-alloc the per-item body is the caller's zero-alloc contract, pinned by the allocs/op regression tests
		}
		telemetry.ParallelTasks.Add(int64(n))
		return
	}
	telemetry.ParallelBatches.Inc()
	telemetry.ParallelTasks.Add(int64(n))
	// Chunked claiming: one atomic op hands out `chunk` consecutive
	// indexes. ~8 chunks per worker keeps the contended-counter cost
	// down (per-page claiming put one RMW on every 4 KiB page) while
	// still letting fast workers steal from slow ones near the tail.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 64 {
		chunk = 64
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	//xfm:ignore hotpath-alloc one closure per batch, amortized over >= workers*8 pages
	body := func() {
		defer wg.Done()
		claimed := 0
		defer func() {
			telemetry.ParallelWorkerTasks.Observe(float64(claimed))
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal = r })
			}
		}()
		for {
			end := int(next.Add(int64(chunk)))
			start := end - chunk
			if start >= n {
				return
			}
			if end > n {
				end = n
			}
			claimed += end - start
			for i := start; i < end; i++ {
				fn(i) //xfm:ignore hotpath-alloc the per-item body is the caller's zero-alloc contract, pinned by the allocs/op regression tests
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go body() //xfm:ignore hotpath-alloc pool spin-up is once per batch, not per page
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
