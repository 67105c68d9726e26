// Package sfm implements the software-defined far memory stack of the
// paper (§2.1, §6): an application-integrated far-memory heap (in the
// style of AIFM), a cold-page-selection control plane (Google-style
// age scanning and Meta-style pressure control), and a zswap-like
// backend that compresses cold pages into a zsmalloc-managed region
// indexed by a red-black tree.
package sfm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/rbtree"
	"xfm/internal/telemetry"
	"xfm/internal/zsmalloc"
)

// PageSize is the OS page granularity of all swap operations (§7:
// "Objects are allocated at the traditional page-size granularity").
const PageSize = 4096

// PageID identifies an application page.
type PageID int64

// Errors returned by backends.
var (
	ErrNotFound = errors.New("sfm: page not in far memory")
	ErrExists   = errors.New("sfm: page already in far memory")
	ErrFull     = errors.New("sfm: far memory region full")
)

// Backend stores compressed cold pages and restores them on demand.
// SwapOut corresponds to the paper's swapOut()/xfm_swap_out() control
// flow and SwapIn to swapIn()/xfm_swap_in() (§6).
type Backend interface {
	// SwapOut compresses data (one page) and stores it under id.
	SwapOut(now dram.Ps, id PageID, data []byte) error
	// SwapIn decompresses the page stored under id into dst (len
	// PageSize) and removes it from far memory. The offload hint is
	// true for preemptive promotions (prefetch), where the controller
	// permits NMA offloading; demand faults pass false and the
	// backend must take the low-latency CPU path (§6: "CPU_Fallback
	// is called by default unless the do_offload parameter is
	// asserted").
	SwapIn(now dram.Ps, id PageID, dst []byte, offload bool) error
	// SwapOutBatch swaps out every page in pages and returns one error
	// slot per page (nil on success), aligned with the input. Batches
	// are the unit of offload submission in the paper (§5: swap traffic
	// is batched per tREFI window); backends with internal sharding run
	// the (de)compression of a batch in parallel.
	SwapOutBatch(now dram.Ps, pages []PageOut) []error
	// SwapInBatch swaps in every page in pages with the given offload
	// hint, returning one error slot per page.
	SwapInBatch(now dram.Ps, pages []PageIn, offload bool) []error
	// Contains reports whether id is stored.
	Contains(id PageID) bool
	// Compact defragments the region and returns bytes moved.
	Compact() int64
	// Stats returns accumulated counters.
	Stats() BackendStats
}

// BackendStats aggregates backend activity. Cycle counts follow each
// codec's CodecInfo model and feed the §3 cost model.
type BackendStats struct {
	SwapOuts, SwapIns   int64
	BytesIn, BytesOut   int64 // uncompressed bytes swapped out / in
	CompressedBytes     int64 // current bytes stored (compressed)
	StoredPages         int64 // current page count
	CPUCycles           float64
	IncompressiblePages int64
	SameFilledPages     int64
	CompactOnFull       int64 // capacity-triggered compactions (§6)
	Region              zsmalloc.Stats

	// Offloads and Fallbacks are populated by NMA-backed backends.
	Offloads, Fallbacks int64
}

// CompressionRatio returns lifetime original/compressed over all
// swap-outs.
func (s BackendStats) CompressionRatio() float64 {
	if s.Region.StoredBytes == 0 || s.StoredPages == 0 {
		return 1
	}
	return float64(s.StoredPages) * PageSize / float64(s.Region.StoredBytes)
}

// CPUBackend is the baseline zswap-style backend: the CPU compresses
// and decompresses pages synchronously with a software codec.
//
// CPUBackend is not safe for concurrent use; it is either owned by one
// goroutine or wrapped in a ShardedBackend shard (which serializes
// access per shard). That single-owner property lets it embed one
// compress.Scratch whose buffers the swap hot path reuses instead of
// allocating per page.
type CPUBackend struct {
	codec   compress.Codec
	alloc   *zsmalloc.Allocator
	index   *rbtree.Tree[PageID, entry]
	stats   BackendStats
	scratch compress.Scratch
}

type entry struct {
	handle  zsmalloc.Handle
	rawSize int
	stored  bool // false when kept uncompressed (incompressible page)
	// sameFilled marks a page whose every 8-byte word equals fillWord:
	// zswap stores such pages as just the word, with no zsmalloc
	// allocation at all (the "same-filled page" optimization).
	sameFilled bool
	fillWord   uint64
}

// NewCPUBackend builds a CPU backend with the given codec and a far
// memory region limited to regionBytes of encapsulating pages
// (regionBytes ≤ 0 means unlimited).
func NewCPUBackend(codec compress.Codec, regionBytes int64) *CPUBackend {
	return &CPUBackend{
		codec: codec,
		alloc: zsmalloc.New(regionBytes),
		index: rbtree.New[PageID, entry](func(a, b PageID) bool { return a < b }),
	}
}

// sameFilledWord reports whether every aligned 8-byte word of the
// page equals the first one, returning that word. The scan runs 32
// bytes per iteration with the four XORs OR-combined into one branch,
// so the common early-mismatch case (an ordinary page) exits after one
// cache line and the all-same case (a zero page) runs four loads per
// branch instead of one.
func sameFilledWord(data []byte) (uint64, bool) {
	w0 := binary.LittleEndian.Uint64(data)
	off := 8
	for ; off+32 <= len(data); off += 32 {
		x := (binary.LittleEndian.Uint64(data[off:]) ^ w0) |
			(binary.LittleEndian.Uint64(data[off+8:]) ^ w0) |
			(binary.LittleEndian.Uint64(data[off+16:]) ^ w0) |
			(binary.LittleEndian.Uint64(data[off+24:]) ^ w0)
		if x != 0 {
			return 0, false
		}
	}
	for ; off+8 <= len(data); off += 8 {
		if binary.LittleEndian.Uint64(data[off:]) != w0 {
			return 0, false
		}
	}
	return w0, true
}

// The swap paths are split into a pure stage half and a mutating
// commit half so the batch engine (engine.go) can run the expensive
// codec work outside the shard locks: stageOut/decompressIn touch no
// backend state and may run on any worker, while commitOut /
// gatherIn / commitIn are the only code that mutates the index, the
// allocator, or stats — under the shard lock when the backend is a
// ShardedBackend shard. The single-page SwapOut/SwapIn wrappers run
// the same two halves back to back, so serial and batched executions
// share one code path and stay bit-identical.

// pageClass classifies a staged swap-out page.
type pageClass int8

const (
	classError pageClass = iota
	classSameFilled
	classCompressed
	classIncompressible
)

// outPlan is the staged form of one swap-out page: everything the
// commit phase needs, produced without touching backend state.
type outPlan struct {
	class    pageClass
	fillWord uint64
	comp     []byte // compressed bytes (classCompressed); arena-backed
	err      error  // classError only
}

// stageOut classifies and compresses one swap-out page. It is pure:
// no backend state is read or written, so any worker may run it
// without a lock. Compressed output is appended to arena (a
// per-worker buffer); the returned plan's comp slice aliases it, and
// stays valid across later appends even if the arena's backing array
// is reallocated by growth.
func stageOut(codec compress.Codec, id PageID, data []byte, arena []byte) (outPlan, []byte) {
	if len(data) != PageSize {
		err := fmt.Errorf("sfm: page %d has %d bytes, want %d", id, len(data), PageSize)
		return outPlan{class: classError, err: err}, arena
	}
	if w, same := sameFilledWord(data); same {
		return outPlan{class: classSameFilled, fillWord: w}, arena
	}
	start := len(arena)
	arena = codec.Compress(arena, data)
	comp := arena[start:len(arena):len(arena)]
	if len(comp) >= PageSize {
		// Incompressible page: the commit will store the raw bytes, so
		// the compressed form is dead weight — roll the arena back.
		return outPlan{class: classIncompressible}, arena[:start]
	}
	return outPlan{class: classCompressed, comp: comp}, arena
}

// commitOut applies a staged swap-out to the backend: duplicate
// check, zsmalloc allocation (with the §6 compact-on-full retry),
// index insert, and stats. This is the only swap-out code that
// mutates backend state; under a ShardedBackend it runs holding the
// shard lock, in input order within the shard, which keeps batch
// results bit-identical to a serial loop.
func (b *CPUBackend) commitOut(id PageID, data []byte, p *outPlan) error {
	if p.class == classError {
		return p.err
	}
	if _, dup := b.index.Get(id); dup {
		return ErrExists
	}
	if p.class == classSameFilled {
		// Same-filled page: store only the fill word (zswap's
		// optimization; zero pages are the common case).
		b.index.Put(id, entry{rawSize: PageSize, sameFilled: true, fillWord: p.fillWord})
		b.stats.SwapOuts++
		b.stats.BytesOut += PageSize
		b.stats.StoredPages++
		b.stats.SameFilledPages++
		telemetry.SFMSwapOuts.Inc()
		telemetry.SFMSameFilled.Inc()
		return nil
	}
	stored := p.comp
	e := entry{rawSize: PageSize, stored: true}
	if p.class == classIncompressible {
		// Incompressible page: store raw, like zswap's same-size
		// passthrough.
		stored = data
		e.stored = false
		b.stats.IncompressiblePages++
		telemetry.SFMIncompressible.Inc()
	}
	h, err := b.alloc.Alloc(stored)
	if err == zsmalloc.ErrCapacity {
		// §6: swapOut "initiates an internal compaction operation if
		// the SFM capacity limit is hit", then retries once.
		b.alloc.Compact()
		b.stats.CompactOnFull++
		h, err = b.alloc.Alloc(stored)
	}
	if err != nil {
		if err == zsmalloc.ErrCapacity {
			return ErrFull
		}
		return err
	}
	e.handle = h
	b.index.Put(id, e)
	b.stats.SwapOuts++
	b.stats.BytesOut += PageSize
	b.stats.StoredPages++
	b.stats.CompressedBytes += int64(len(stored))
	b.stats.CPUCycles += b.codec.Info().CompressCyclesPerByte * PageSize
	telemetry.SFMSwapOuts.Inc()
	telemetry.SFMCompressedPageBytes.Observe(float64(len(stored)))
	return nil
}

// SwapOut implements Backend.
func (b *CPUBackend) SwapOut(now dram.Ps, id PageID, data []byte) error {
	var p outPlan
	p, b.scratch.Comp = stageOut(b.codec, id, data, b.scratch.Comp[:0])
	return b.commitOut(id, data, &p)
}

// inPlan is the staged form of one swap-in page across the two-phase
// protocol: gatherIn fills it under the lock, decompressIn consumes
// it lock-free, commitIn settles it under the lock again.
type inPlan struct {
	e entry
	// pinned aliases the compressed object's live zsmalloc slot,
	// pinned so compaction cannot move it while a worker decompresses
	// without the shard lock. Valid until commitIn frees or unpins.
	pinned []byte
	err    error
	// detached: the entry was removed from the index and its handle
	// pinned; commitIn must either free it (success) or restore it
	// (decompress failure), so a failed page is left stored exactly as
	// a serial SwapIn would leave it.
	detached bool
}

// gatherIn detaches one swap-in page under the shard lock: it takes
// the entry out of the index (so concurrent single-page ops cannot
// double-claim it; one lookup, not a Get and then a Delete that looks
// again), and pins the compressed object so
// compact-on-full from another batch cannot move the bytes while
// decompressIn reads them without the lock. It mutates only the index
// and the pin bit — all stats settle in commitIn.
func (b *CPUBackend) gatherIn(id PageID, dst []byte) inPlan {
	if len(dst) != PageSize {
		return inPlan{err: fmt.Errorf("sfm: dst has %d bytes, want %d", len(dst), PageSize)}
	}
	e, ok := b.index.Take(id)
	if !ok {
		return inPlan{err: ErrNotFound}
	}
	if e.sameFilled {
		return inPlan{e: e, detached: true}
	}
	raw, err := b.alloc.Pin(e.handle)
	if err != nil {
		b.index.Put(id, e) // a page that cannot be pinned stays stored
		return inPlan{err: err}
	}
	return inPlan{e: e, pinned: raw, detached: true}
}

// decompressIn restores the page bytes into dst from a gathered plan.
// It is pure modulo dst and the plan's err field: no backend state is
// touched, so any worker may run it without a lock (the pinned slice
// is protected by the pin, not the lock).
func decompressIn(codec compress.Codec, id PageID, p *inPlan, dst []byte) {
	if !p.detached {
		return
	}
	e := &p.e
	if e.sameFilled {
		for off := 0; off < PageSize; off += 8 {
			binary.LittleEndian.PutUint64(dst[off:], e.fillWord)
		}
		return
	}
	if e.stored {
		out, err := codec.Decompress(dst[:0], p.pinned)
		if err != nil {
			p.err = err
			return
		}
		if len(out) != PageSize {
			p.err = fmt.Errorf("sfm: page %d decompressed to %d bytes", id, len(out))
			return
		}
	} else {
		copy(dst, p.pinned)
	}
}

// commitIn settles a gathered page under the shard lock: on success
// it frees the compressed object (ending the pin) and applies stats;
// on a decompression failure it restores the entry to the index and
// unpins, so the page stays stored — the same end state a serial
// SwapIn leaves after a failed decompress.
func (b *CPUBackend) commitIn(id PageID, p *inPlan) error {
	if !p.detached {
		return p.err
	}
	e := &p.e
	if e.sameFilled {
		b.stats.SwapIns++
		b.stats.BytesIn += PageSize
		b.stats.StoredPages--
		telemetry.SFMSwapIns.Inc()
		return nil
	}
	if p.err != nil {
		b.index.Put(id, p.e)
		b.alloc.Unpin(e.handle)
		return p.err
	}
	if err := b.alloc.Free(e.handle); err != nil {
		b.index.Put(id, p.e)
		return err
	}
	b.stats.SwapIns++
	b.stats.BytesIn += PageSize
	b.stats.StoredPages--
	b.stats.CompressedBytes -= int64(len(p.pinned))
	b.stats.CPUCycles += b.codec.Info().DecompressCyclesPerByte * PageSize
	telemetry.SFMSwapIns.Inc()
	return nil
}

// SwapIn implements Backend. The CPU backend ignores the offload hint:
// every swap-in runs on the CPU. Decompression reads the pinned
// zsmalloc slot directly — no staging copy of the compressed bytes.
func (b *CPUBackend) SwapIn(now dram.Ps, id PageID, dst []byte, offload bool) error {
	p := b.gatherIn(id, dst)
	decompressIn(b.codec, id, &p, dst)
	return b.commitIn(id, &p)
}

// Contains implements Backend.
func (b *CPUBackend) Contains(id PageID) bool {
	_, ok := b.index.Get(id)
	return ok
}

// Compact implements Backend.
func (b *CPUBackend) Compact() int64 { return b.alloc.Compact() }

// Stats implements Backend.
func (b *CPUBackend) Stats() BackendStats {
	s := b.stats
	s.Region = b.alloc.Stats()
	return s
}
