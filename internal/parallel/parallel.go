// Package parallel provides Pool, the persistent worker pool the
// batched swap pipeline (sfm, xfm) fans work out through: one claiming
// loop keeps the concurrency shape of the whole stack in one place.
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
