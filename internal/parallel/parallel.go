// Package parallel provides the worker-pool primitive the stack fans
// work out through: the batched swap pipeline (sfm, xfm) keeps a
// persistent Pool, and the coarse experiment fan-outs use ForEach, a
// Pool that lives for one call. Keeping one claiming loop makes the
// concurrency shape of the whole stack auditable in one place.
package parallel

import "runtime"

// Workers resolves a worker-count request: values > 0 pass through,
// anything else means "one worker per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) using up to workers
// goroutines (workers ≤ 0 means GOMAXPROCS) and returns when all calls
// have completed. It is Pool.Run on a pool built for this one call, so
// the claiming order, inline serial path and panic propagation are
// Run's; it pays a goroutine spin-up per call and is meant for coarse
// work (one experiment, one corpus) rather than per-page batches.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	p := NewPool(min(Workers(workers), n))
	defer p.Close()
	p.Run(n, 0, func(_, i int) { fn(i) })
}
