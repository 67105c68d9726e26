package sfm

import (
	"sync"
	"sync/atomic"

	"xfm/internal/compress"
	"xfm/internal/dram"
)

// batchEngine executes a ShardedBackend batch as a two-stage,
// page-granular pipeline (the software analogue of the paper's §5
// refresh-access overlap: do the heavy work where it doesn't
// contend).
//
// Swap-out: workers claim pages (not shards) off the pool's atomic
// counter and run stageOut — the codec work, ~99% of the batch cost —
// with no lock held, into a per-worker arena. Each page then
// decrements its shard's pending counter; the worker that takes a
// counter to zero immediately commits that whole shard (commitOut per
// page, in input order, under the shard lock). Commits therefore
// overlap the remaining compression instead of waiting for a barrier,
// and a skewed batch (every page in one shard) still compresses on
// all cores.
//
// Swap-in mirrors it with the two-phase protocol: gather/detach under
// each shard lock (index delete + zsmalloc pin, so concurrent
// compact-on-full cannot move the bytes), decompress lock-free at
// page granularity straight from the pinned slots, then a per-shard
// free/stats commit, again triggered by the last pending decrement.
//
// Ordering invariant: within a shard, commits apply in batch input
// order — exactly the order a serial loop would use — so results,
// stats (including float CPUCycles accumulation order), and zsmalloc
// layout are bit-identical to the serial path at any worker count.
//
// One batch runs at a time (mu); the slices below are the engine's
// reusable scratch, valid only inside the batch that planned them.
//
// Locking: the batch owner holds mu from before plan until its last
// pool.Run has returned, so the pool's workers read the batch fields
// without taking it. What keeps the workers apart from each other is
// not a lock: each writes only its own page's outPlans/inPlans/errs
// slot; a gather step owns one whole shard; the gather Run returns
// before the decompress Run starts; and a shard's committer reads the
// other workers' plan slots only after the pending counter, which every
// stager decrements after its plan store, has reached zero.
type batchEngine struct {
	s     *ShardedBackend
	codec compress.Codec

	mu sync.Mutex // serializes batches; guards every field below across batches

	// In-flight batch inputs and outputs. outs/ins alias the caller's
	// batch slice for the duration of the call; errs is the freshly
	// allocated result slice (callers may retain it, so it is the one
	// per-batch allocation that is not pooled).
	outs []PageOut
	ins  []PageIn
	now  dram.Ps
	errs []error

	// Pooled plan state, reused across batches. byShard holds each
	// shard's batch indexes in input order; active lists the shards
	// with work this batch.
	outPlans []outPlan
	inPlans  []inPlan
	byShard  [][]int32
	active   []int32
	pending  []atomic.Int32 // per-shard stage work left; the worker that hits 0 commits
	workers  []workerArena

	// Persistent bound closures handed to pool.Run, created once so
	// the steady-state batch path allocates no closures.
	outStepFn    func(w, i int)
	gatherStepFn func(w, i int)
	inStepFn     func(w, i int)
}

// workerArena is one worker's append-only compressed-output buffer.
// Plans hold slices into it; growth reallocations leave those slices
// pointing at the old backing array, so they stay valid for the whole
// batch, and the arena keeps its high-water capacity across batches.
type workerArena struct {
	buf []byte
	_   [64]byte // keep neighbouring workers' slice headers off one cache line
}

// init wires the engine to its backend (called once from
// NewShardedBackend, before the backend escapes).
func (e *batchEngine) init(s *ShardedBackend, codec compress.Codec) {
	e.s = s
	e.codec = codec
	e.workers = make([]workerArena, s.pool.Width())
	e.outStepFn = e.outStep
	e.gatherStepFn = e.gatherStep
	e.inStepFn = e.inStep
}

// plan groups batch indexes by shard into pooled slices and arms the
// per-shard pending counters. n is the batch length; shardOf must be
// the routing hash of element i.
func (e *batchEngine) plan(n int, shardOf func(i int) int) {
	nsh := len(e.s.shards)
	byShard, active := e.byShard, e.active
	if cap(byShard) < nsh {
		byShard = make([][]int32, nsh)
	}
	byShard = byShard[:nsh]
	for i := range byShard {
		byShard[i] = byShard[i][:0]
	}
	if cap(e.pending) < nsh {
		e.pending = make([]atomic.Int32, nsh)
	}
	e.pending = e.pending[:nsh]
	active = active[:0]
	for i := 0; i < n; i++ {
		si := shardOf(i)
		if len(byShard[si]) == 0 {
			active = append(active, int32(si))
		}
		byShard[si] = append(byShard[si], int32(i))
	}
	for _, si := range active {
		e.pending[si].Store(int32(len(byShard[si])))
	}
	for i := range e.workers {
		e.workers[i].buf = e.workers[i].buf[:0]
	}
	e.byShard, e.active = byShard, active
}

// swapOutBatch runs the staged swap-out pipeline. Caller-visible
// semantics match a serial loop over the same pages.
func (e *batchEngine) swapOutBatch(now dram.Ps, pages []PageOut) []error {
	errs := make([]error, len(pages))
	if len(pages) == 0 {
		return errs
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.outs, e.errs, e.now = pages, errs, now
	if cap(e.outPlans) < len(pages) {
		e.outPlans = make([]outPlan, len(pages))
	}
	e.outPlans = e.outPlans[:len(pages)]
	e.plan(len(pages), func(i int) int { return ShardIndexFor(pages[i].ID, len(e.s.shards)) })
	e.s.pool.Run(len(pages), e.s.workers, e.outStepFn)
	e.outs, e.errs = nil, nil
	return errs
}

// outStep stages one page lock-free and, when it is the last staged
// page of its shard, commits the whole shard. Reads of other workers'
// outPlans entries are ordered by the pending counter: every stager
// decrements after its plan store, and the committer observed the
// count reach zero.
func (e *batchEngine) outStep(w, i int) {
	outs, plans := e.outs, e.outPlans
	pg := &outs[i]
	plans[i], e.workers[w].buf = stageOut(e.codec, pg.ID, pg.Data, e.workers[w].buf)
	si := ShardIndexFor(pg.ID, len(e.s.shards))
	if e.pending[si].Add(-1) == 0 {
		e.commitOutShard(si)
	}
}

// commitOutShard applies one shard's staged pages in input order
// under the shard lock.
func (e *batchEngine) commitOutShard(si int) {
	idxs, outs := e.byShard[si], e.outs
	plans, errs := e.outPlans, e.errs
	sh := &e.s.shards[si]
	sh.mu.Lock()
	for _, i := range idxs {
		pg := &outs[i]
		errs[i] = sh.b.commitOut(pg.ID, pg.Data, &plans[i])
	}
	sh.mu.Unlock()
}

// swapInBatch runs the two-phase swap-in pipeline: gather/detach per
// shard under the lock, then page-granular lock-free decompression
// with per-shard commits piggybacked on the last pending decrement.
func (e *batchEngine) swapInBatch(now dram.Ps, pages []PageIn) []error {
	errs := make([]error, len(pages))
	if len(pages) == 0 {
		return errs
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ins, e.errs, e.now = pages, errs, now
	if cap(e.inPlans) < len(pages) {
		e.inPlans = make([]inPlan, len(pages))
	}
	e.inPlans = e.inPlans[:len(pages)]
	e.plan(len(pages), func(i int) int { return ShardIndexFor(pages[i].ID, len(e.s.shards)) })
	e.s.pool.Run(len(e.active), e.s.workers, e.gatherStepFn)
	e.s.pool.Run(len(pages), e.s.workers, e.inStepFn)
	e.ins, e.errs = nil, nil
	for i := range e.inPlans {
		e.inPlans[i] = inPlan{} // drop pinned-slot aliases
	}
	return errs
}

// gatherStep detaches every page of one active shard under its lock,
// in input order (so duplicate ids in one batch resolve exactly as a
// serial loop would).
func (e *batchEngine) gatherStep(_, i int) {
	si, ins, plans := e.active[i], e.ins, e.inPlans
	idxs := e.byShard[si]
	sh := &e.s.shards[si]
	sh.mu.Lock()
	for _, j := range idxs {
		pg := &ins[j]
		plans[j] = sh.b.gatherIn(pg.ID, pg.Dst)
	}
	sh.mu.Unlock()
}

// inStep decompresses one page lock-free from its pinned slot and,
// when it is the shard's last, commits the shard's frees and stats.
func (e *batchEngine) inStep(_, i int) {
	ins, plans := e.ins, e.inPlans
	pg := &ins[i]
	decompressIn(e.codec, pg.ID, &plans[i], pg.Dst)
	si := ShardIndexFor(pg.ID, len(e.s.shards))
	if e.pending[si].Add(-1) == 0 {
		e.commitInShard(si)
	}
}

// commitInShard settles one shard's gathered pages in input order
// under the shard lock.
func (e *batchEngine) commitInShard(si int) {
	idxs, ins := e.byShard[si], e.ins
	plans, errs := e.inPlans, e.errs
	sh := &e.s.shards[si]
	sh.mu.Lock()
	for _, i := range idxs {
		errs[i] = sh.b.commitIn(ins[i].ID, &plans[i])
	}
	sh.mu.Unlock()
}
