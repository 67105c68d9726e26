package parallel

import (
	"sync"
	"sync/atomic"

	"xfm/internal/telemetry"
)

// Pool is a persistent worker pool for the batched swap pipeline. A
// ForEach call pays a goroutine spin-up (and join) per batch; a Pool
// spawns its workers once, parks them between batches, and reuses one
// job descriptor, so a steady-state batch performs no allocations in
// the pool itself.
//
// Identity: Run executes fn(worker, i) where worker is a stable id in
// [0, Width()). The calling goroutine participates as worker 0; the
// spawned goroutines are 1..Width()-1. At most one goroutine uses a
// given worker id at a time, so callers may index per-worker state
// (scratch buffers, arenas) by the id without synchronization.
//
// Runs are serialized: one batch executes at a time per Pool, and a
// concurrent Run blocks until the current one drains. Workers are
// spawned lazily on the first Run that fans out, so a Pool that only
// ever runs inline (one CPU, tiny batches) costs nothing.
type Pool struct {
	width int

	mu    sync.Mutex // serializes Run; job below is valid only inside one Run
	spawn sync.Once
	wake  chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
	job   poolJob
}

// poolJob is the reusable batch descriptor shared with the workers.
// It is written by Run (under mu, before the wake signals) and read by
// the woken workers; the WaitGroup join orders the final reads.
type poolJob struct {
	fn       func(worker, i int)
	n        int
	chunk    int
	next     atomic.Int64
	panicked atomic.Bool
	panicVal any
}

// NewPool builds a pool with Workers(workers) worker identities (0
// passes through to GOMAXPROCS). No goroutines start until a Run fans
// out.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	return &Pool{
		width: w,
		wake:  make(chan struct{}, w),
		stop:  make(chan struct{}),
	}
}

// Width returns the number of worker identities (the upper bound on
// parallelism and the size callers should give per-worker state).
func (p *Pool) Width() int { return p.width }

// Close releases the pool's goroutines. Close is optional — idle
// workers are parked on a channel and cost only their stacks — and
// safe to call at most once; Run after Close degrades to the inline
// serial path.
func (p *Pool) Close() { close(p.stop) }

func (p *Pool) closed() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// Run executes fn(worker, i) for every i in [0, n) and returns when
// all calls completed. limit > 0 caps the workers used this batch
// (limit ≤ 0 means the full width); a single effective worker (or
// n ≤ 1) runs inline on the caller with worker id 0, so serial and
// parallel executions share one code path. Indexes are claimed from an
// atomic counter in chunks, so fn must not depend on which worker runs
// which index — only per-index and per-worker state may be written
// without synchronization. Panics inside fn propagate to the caller
// (the first one observed; others are dropped).
func (p *Pool) Run(n, limit int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	active := p.width
	if limit > 0 && limit < active {
		active = limit
	}
	if active > n {
		active = n
	}
	if active <= 1 || p.closed() {
		telemetry.ParallelTasks.Add(int64(n))
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spawn.Do(p.spawnWorkers)
	telemetry.ParallelBatches.Inc()
	telemetry.ParallelTasks.Add(int64(n))
	j := &p.job
	j.fn, j.n = fn, n
	j.chunk = chunkFor(n, active)
	j.next.Store(0)
	j.panicked.Store(false)
	j.panicVal = nil
	p.wg.Add(active - 1)
	for w := 1; w < active; w++ {
		p.wake <- struct{}{}
	}
	p.runBody(0)
	p.wg.Wait()
	j.fn = nil
	if j.panicked.Load() {
		panic(j.panicVal)
	}
}

// spawnWorkers starts the parked worker goroutines (ids 1..width-1).
func (p *Pool) spawnWorkers() {
	for id := 1; id < p.width; id++ {
		go p.work(id)
	}
}

// work parks until a batch needs this worker, runs its share, and
// parks again. Each wake signal corresponds to exactly one wg slot, so
// it does not matter which parked worker picks a signal up.
func (p *Pool) work(id int) {
	for {
		select {
		case <-p.wake:
			p.runBody(id)
			p.wg.Done()
		case <-p.stop:
			return
		}
	}
}

// runBody claims index chunks off the shared counter until the batch
// is exhausted, so fast workers steal from slow ones near the tail.
func (p *Pool) runBody(id int) {
	j := &p.job
	claimed := 0
	defer func() {
		telemetry.ParallelWorkerTasks.Observe(float64(claimed))
		if r := recover(); r != nil {
			if j.panicked.CompareAndSwap(false, true) {
				j.panicVal = r
			}
		}
	}()
	n, chunk := j.n, j.chunk
	for {
		end := int(j.next.Add(int64(chunk)))
		start := end - chunk
		if start >= n {
			return
		}
		if end > n {
			end = n
		}
		claimed += end - start
		for i := start; i < end; i++ {
			j.fn(id, i)
		}
	}
}

// chunkFor sizes the atomic-claim granularity: ~8 chunks per worker,
// clamped so tiny batches still balance and huge ones do not spin on
// the counter.
func chunkFor(n, workers int) int {
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 64 {
		chunk = 64
	}
	return chunk
}
