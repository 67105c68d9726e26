package sfm

import (
	"sync"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/parallel"
)

// ShardedBackend partitions the far-memory region across several
// CPUBackends so a batch's (de)compression can run on every core at
// once. Pages are routed to shards by a hash of their PageID; each
// shard owns an independent page table and zsmalloc region behind its
// own mutex, so shard-disjoint operations never contend. This is the
// software analogue of the paper's per-rank NMA engines (§5): one
// compression unit per rank, all active in the same refresh window.
//
// Batches run on the two-stage page-granular pipeline in engine.go:
// codec work happens outside the shard locks on a persistent worker
// pool, and only the commit phase (index + allocator + stats) holds a
// lock. Batch semantics still match a serial loop over the same
// backend: results are aligned with the input slice, and within a
// shard pages are committed in input order, so stats and stored bytes
// are identical regardless of worker count.
type ShardedBackend struct {
	shards  []backendShard
	workers int
	pool    *parallel.Pool
	eng     batchEngine
}

type backendShard struct {
	mu sync.Mutex
	// b owns the shard's page table and zsmalloc region; CPUBackend is
	// single-owner, so every touch must hold the shard lock.
	b *CPUBackend
	// pad spaces the shard locks apart so they do not false-share a
	// cache line when every worker is spinning on a different shard.
	_ [64]byte
}

// NewShardedBackend builds a sharded backend with nShards CPUBackends
// (clamped to ≥1), splitting regionBytes evenly across shards
// (regionBytes ≤ 0 means unlimited everywhere). workers bounds batch
// parallelism as in parallel.Workers: 0 means GOMAXPROCS. The codec is
// shared by all shards and must be safe for concurrent use — every
// codec in the compress package is (their mutable state is either
// stack-local or pooled).
func NewShardedBackend(codec compress.Codec, regionBytes int64, nShards, workers int) *ShardedBackend {
	if nShards < 1 {
		nShards = 1
	}
	perShard := regionBytes
	if regionBytes > 0 {
		perShard = regionBytes / int64(nShards)
		if perShard < PageSize {
			perShard = PageSize
		}
	}
	s := &ShardedBackend{
		shards:  make([]backendShard, nShards),
		workers: parallel.Workers(workers),
	}
	s.pool = parallel.NewPool(s.workers)
	for i := range s.shards {
		s.shards[i].b = NewCPUBackend(codec, perShard)
	}
	s.eng.init(s, codec)
	return s
}

// Close releases the backend's worker pool goroutines. Optional (idle
// workers only park on a channel); batches after Close degrade to the
// serial inline path.
func (s *ShardedBackend) Close() { s.pool.Close() }

// ShardIndexFor routes a page to its shard with a splitmix64-style
// mixer so sequential PageIDs spread across shards instead of
// clustering. Exported so tests and benchmarks can construct
// deliberately skewed batches (every page on one shard).
func ShardIndexFor(id PageID, nShards int) int {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(nShards))
}

func (s *ShardedBackend) shardOf(id PageID) *backendShard {
	return &s.shards[ShardIndexFor(id, len(s.shards))]
}

// SwapOut implements Backend.
func (s *ShardedBackend) SwapOut(now dram.Ps, id PageID, data []byte) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.b.SwapOut(now, id, data)
}

// SwapIn implements Backend.
func (s *ShardedBackend) SwapIn(now dram.Ps, id PageID, dst []byte, offload bool) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.b.SwapIn(now, id, dst, offload)
}

// SwapOutBatch implements Backend: workers claim pages off an atomic
// counter, compress them with no lock held, and the last worker to
// finish a shard's pages commits that shard in input order (see
// batchEngine).
func (s *ShardedBackend) SwapOutBatch(now dram.Ps, pages []PageOut) []error {
	return s.eng.swapOutBatch(now, pages)
}

// SwapInBatch implements Backend: per-shard gather/detach under the
// lock, page-granular lock-free decompression from pinned slots, then
// per-shard free/stats commits (see batchEngine). The offload hint is
// ignored, as in the serial CPU path.
func (s *ShardedBackend) SwapInBatch(now dram.Ps, pages []PageIn, offload bool) []error {
	return s.eng.swapInBatch(now, pages)
}

// Contains implements Backend.
func (s *ShardedBackend) Contains(id PageID) bool {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.b.Contains(id)
}

// Compact implements Backend: every shard compacts; shards compact in
// parallel since their regions are independent.
func (s *ShardedBackend) Compact() int64 {
	moved := make([]int64, len(s.shards))
	s.pool.Run(len(s.shards), s.workers, func(_, si int) {
		sh := &s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		moved[si] = sh.b.Compact()
	})
	var total int64
	for _, m := range moved {
		total += m
	}
	return total
}

// Stats implements Backend, summing counters across shards.
func (s *ShardedBackend) Stats() BackendStats {
	var out BackendStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.b.Stats()
		sh.mu.Unlock()
		out.SwapOuts += st.SwapOuts
		out.SwapIns += st.SwapIns
		out.BytesIn += st.BytesIn
		out.BytesOut += st.BytesOut
		out.CompressedBytes += st.CompressedBytes
		out.StoredPages += st.StoredPages
		out.CPUCycles += st.CPUCycles
		out.IncompressiblePages += st.IncompressiblePages
		out.SameFilledPages += st.SameFilledPages
		out.CompactOnFull += st.CompactOnFull
		out.Region.Objects += st.Region.Objects
		out.Region.StoredBytes += st.Region.StoredBytes
		out.Region.PageBytes += st.Region.PageBytes
		out.Region.Allocs += st.Region.Allocs
		out.Region.Frees += st.Region.Frees
		out.Region.Compactions += st.Region.Compactions
		out.Region.CompactedBytes += st.Region.CompactedBytes
	}
	return out
}

var _ Backend = (*ShardedBackend)(nil)
