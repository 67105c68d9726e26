package xfm

import (
	"fmt"
	"sync/atomic"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/ecc"
	"xfm/internal/fault"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/parallel"
	"xfm/internal/sfm"
	"xfm/internal/telemetry"
)

// Backend is the XFM_Backend of §6: an sfm.Backend whose swap paths
// (xfm_swap_out / xfm_swap_in) offload (de)compression to the NMA.
//
// Like the paper's emulator (§7), the data path runs in software (the
// inner CPU backend stores real compressed bytes) while the offload
// accounting — request queues, SPM occupancy, refresh-window
// scheduling, CPU fallbacks — runs through the Driver against the NMA
// timing model. CPU cycles are charged only for operations that
// actually fell back to the CPU.
type Backend struct {
	inner   sfm.Backend
	driver  *Driver
	mapp    memctrl.Mapping
	workers int // batch parallelism bound (0 = GOMAXPROCS)
	// pool runs the batch fan-outs (ECC parity math); persistent so
	// steady-state batches spin up no goroutines. workers caps each
	// Run rather than the pool width, so SetWorkers-style rebinding
	// stays cheap.
	pool *parallel.Pool

	// Lazy SPM occupancy tracking (§6): the backend assumes every
	// submitted offload still occupies the SPM until a completion-
	// counter poll (an MMIO read) proves otherwise, so the common-case
	// submission path touches no hardware registers.
	completedSeen atomic.Int64
	spmSyncs      telemetry.Counter

	// Mutation of these counters happens only on the serial submission
	// path (single-page calls and the serial phase of a batch), but
	// Stats()/ECCStats() may be called from other goroutines while a
	// batch is in flight, so every counter a snapshot reads is an
	// atomic telemetry counter.
	nextReq   int64 // serial-phase only, never read by snapshots
	offloads  telemetry.Counter
	fallbacks telemetry.Counter
	cpuCycles telemetry.FloatCounter
	codec     compress.Codec

	// Side-band ECC (§4.1): the NMA regenerates the x72 parity bytes
	// when writing data back so the host memory controller can keep
	// performing SECDED on later reads. The backend keeps the parity
	// of every stored page and verifies it on swap-in. A parity entry
	// exists exactly while a page swapped out with ECC on is stored;
	// its 512-byte buffer comes from and returns to parityFree. The
	// map, the free list and the batch scratch are touched only on the
	// serial phases; the fan-outs see disjoint eccBatch slots.
	eccEnabled       bool
	parity           map[sfm.PageID][]byte
	parityFree       [][]byte
	batch            eccBatch
	parityBytes      telemetry.Counter
	eccCorrected     telemetry.Counter
	eccUncorrectable telemetry.Counter

	// Fault plane and graceful degradation (both nil/empty unless
	// explicitly armed; the default backend pays one nil check per op).
	// inj schedules deterministic ECC bit flips on swap-in images; deg
	// is the circuit breaker (degrade.go); staging holds raw page
	// copies that back quarantine re-serves; quarantined lists pages
	// whose verification found uncorrectable words (bad-word count).
	// Like parity, staging and quarantined are touched only on the
	// serial phases of the swap paths.
	inj         *fault.Injector
	deg         *degrader
	staging     map[sfm.PageID][]byte
	quarantined map[sfm.PageID]int
}

// NewBackend builds an XFM backend. regionBytes limits the SFM region;
// the driver must cover the rank holding the region. The mapping is
// used to derive which refresh group each page's DRAM rows belong to.
func NewBackend(codec compress.Codec, regionBytes int64, driver *Driver, m memctrl.Mapping) (*Backend, error) {
	return newBackend(codec, sfm.NewCPUBackend(codec, regionBytes), regionBytes, driver, m)
}

// NewShardedBackend builds an XFM backend whose SFM store is sharded
// across nShards page tables, so SwapOutBatch/SwapInBatch run their
// (de)compression on up to workers goroutines (0 = GOMAXPROCS). This
// models the paper's per-rank NMA parallelism (§5) on the emulator's
// software datapath.
func NewShardedBackend(codec compress.Codec, regionBytes int64, nShards, workers int,
	driver *Driver, m memctrl.Mapping) (*Backend, error) {
	b, err := newBackend(codec, sfm.NewShardedBackend(codec, regionBytes, nShards, workers), regionBytes, driver, m)
	if err != nil {
		return nil, err
	}
	b.workers = workers
	return b, nil
}

func newBackend(codec compress.Codec, inner sfm.Backend, regionBytes int64,
	driver *Driver, m memctrl.Mapping) (*Backend, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := driver.Paramset(0, regionBytes); err != nil {
		return nil, err
	}
	b := &Backend{
		inner:       inner,
		driver:      driver,
		mapp:        m,
		codec:       codec,
		eccEnabled:  true,
		parity:      map[sfm.PageID][]byte{},
		quarantined: map[sfm.PageID]int{},
		pool:        parallel.NewPool(0),
	}
	b.batch.parityFn = b.parityStep
	b.batch.verifyFn = b.verifyStep
	return b, nil
}

// SetInjector arms deterministic fault injection (nil disarms): the
// injector reaches the driver's submission path, the NMA sim's storm
// schedule, and this backend's ECC verification images.
func (b *Backend) SetInjector(in *fault.Injector) {
	b.inj = in
	b.driver.SetInjector(in)
}

// Close releases the backend's worker pool (and the inner store's,
// when it has one). Optional: idle workers only park on a channel.
func (b *Backend) Close() {
	b.pool.Close()
	if c, ok := b.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// SetECC enables or disables side-band parity regeneration; it is on
// by default (commodity servers run ECC DIMMs, §4.1).
func (b *Backend) SetECC(on bool) { b.eccEnabled = on }

// Driver returns the backend's driver.
func (b *Backend) Driver() *Driver { return b.driver }

// pageGroup derives the refresh group of the DRAM row(s) holding a
// page-aligned address. All banks refresh the same row index during a
// window and the page's two interleaved banks share one row (Fig. 6a),
// so a page maps to a single group.
func (b *Backend) pageGroup(addr int64) int {
	addr %= b.mapp.TotalBytes()
	if addr < 0 {
		addr += b.mapp.TotalBytes()
	}
	co := b.mapp.Decompose(addr)
	return b.mapp.Device.RowRefreshGroup(co.Row)
}

// localAddr places a page id in the local address space; the SFM
// region lives beyond the application pages.
func (b *Backend) localAddr(id sfm.PageID) int64 {
	return int64(id) * sfm.PageSize
}

// regionAddr places an SFM region slot: region slots follow the
// driver-configured base.
func (b *Backend) regionAddr(id sfm.PageID) int64 {
	base, size := b.driver.Region()
	if size <= 0 {
		size = sfm.PageSize
	}
	return base + (int64(id)*sfm.PageSize)%size
}

// SwapOut implements sfm.Backend: xfm_swap_out(). The cold page is
// read from its local rows (source group) and its compressed form is
// written into the SFM region (destination group). If the NMA rejects
// the request the CPU performs the compression (CPU_Fallback).
//
//xfm:hotpath
func (b *Backend) SwapOut(now dram.Ps, id sfm.PageID, data []byte) error {
	if err := b.inner.SwapOut(now, id, data); err != nil {
		return err
	}
	if b.eccEnabled {
		// Regenerate the side-band parity for the page image the NMA
		// writes back (§4.1: "the NMA calculates the parity bits and
		// stores them in the ECC DRAM chips, when writing back").
		p := b.parityBuf(id)
		ecc.PageParityInto(p, data)
		b.parityBytes.Add(int64(len(p)))
	} else {
		b.dropParity(id)
	}
	if b.deg != nil {
		b.stageCopy(id, data)
	}
	b.driver.AdvanceTo(now)
	b.nextReq++
	req := nma.Request{
		ID:       b.nextReq,
		Kind:     nma.CompressOp,
		SrcGroup: b.pageGroup(b.localAddr(id)),
		DstGroup: b.pageGroup(b.regionAddr(id)),
		Arrive:   now,
	}
	b.submitOrFallback(req, nma.CompressOp)
	return nil
}

// SwapIn implements sfm.Backend: xfm_swap_in(). Demand faults
// (offload=false) always run on the CPU — "CPU_Fallback is called by
// default unless the do_offload parameter is asserted" (§6) — because
// the NMA datapath adds at least 2×tREFI of latency (Fig. 10).
// Prefetches (offload=true) go to the NMA.
//
//xfm:hotpath
func (b *Backend) SwapIn(now dram.Ps, id sfm.PageID, dst []byte, offload bool) error {
	if err := b.inner.SwapIn(now, id, dst, offload); err != nil {
		return err
	}
	if p, ok := b.parity[id]; ok {
		corrected, bad := 0, 0
		if b.eccEnabled {
			if b.inj != nil {
				b.injectECC(id, dst)
			}
			corrected, bad = ecc.VerifyPage(dst, p)
			b.recordECC(corrected, bad)
		}
		// Dropped even when ECC is off and the image went unverified:
		// an entry must not outlive the page image it describes.
		b.dropParity(id)
		if bad > 0 {
			if err := b.quarantinePage(id, bad, dst); err != nil {
				return err
			}
		}
	}
	delete(b.staging, id)
	b.driver.AdvanceTo(now)
	if !offload {
		b.recordFallback(nma.DecompressOp)
		return nil
	}
	b.nextReq++
	req := nma.Request{
		ID:       b.nextReq,
		Kind:     nma.DecompressOp,
		SrcGroup: b.pageGroup(b.regionAddr(id)),
		DstGroup: b.pageGroup(b.localAddr(id)),
		Arrive:   now,
	}
	b.submitOrFallback(req, nma.DecompressOp)
	return nil
}

// parityBuf returns the parity buffer registered for id, registering
// a recycled (or, cold, a new) one when the page has none.
func (b *Backend) parityBuf(id sfm.PageID) []byte {
	if p, ok := b.parity[id]; ok {
		return p
	}
	var p []byte
	if n := len(b.parityFree); n > 0 {
		p, b.parityFree = b.parityFree[n-1], b.parityFree[:n-1]
	} else {
		p = make([]byte, sfm.PageSize/8)
	}
	b.parity[id] = p
	return p
}

// dropParity forgets id's parity, if any, and recycles its buffer.
func (b *Backend) dropParity(id sfm.PageID) {
	if p, ok := b.parity[id]; ok {
		delete(b.parity, id)
		b.parityFree = append(b.parityFree, p)
	}
}

// submitOrFallback runs the §6 submission protocol: lazy occupancy
// check, MMIO sync when the inferred SPM bound is exhausted, then an
// MMIO write into the request queue; on rejection the CPU performs
// the operation.
// recordFallback charges one CPU-executed swap operation.
func (b *Backend) recordFallback(kind nma.OpKind) {
	b.fallbacks.Inc()
	gmFallbacks.Inc()
	var perByte float64
	if kind == nma.CompressOp {
		perByte = b.codec.Info().CompressCyclesPerByte
	} else {
		perByte = b.codec.Info().DecompressCyclesPerByte
	}
	b.cpuCycles.Add(perByte * sfm.PageSize)
}

// stageCopy keeps an uncompressed staging copy of a swapped-out page:
// the CPU-side backstop that lets a later uncorrectable ECC hit be
// re-served intact instead of surfacing data loss. Buffers recycle per
// page ID across swap cycles.
//
//xfm:allocok staging copies exist only with degradation armed (chaos runs), never in steady-state benchmarks
func (b *Backend) stageCopy(id sfm.PageID, data []byte) {
	buf := b.staging[id]
	if cap(buf) < len(data) {
		buf = make([]byte, len(data))
	}
	buf = buf[:len(data)]
	copy(buf, data)
	b.staging[id] = buf
}

// injectECC applies the chaos plan's scheduled bit flips to the page
// image read back from far memory, before parity verification. The
// draw is keyed by page ID, so which pages get hit is independent of
// swap order; multi takes precedence over single when both fire.
func (b *Backend) injectECC(id sfm.PageID, dst []byte) {
	words := len(dst) / 8
	if words == 0 {
		return
	}
	if b.inj.Hit(fault.SiteECCMulti, uint64(id)) {
		// Two flipped bits in one 64-bit word: uncorrectable under
		// SECDED (§4.1). The word index is a hash of the page ID so
		// hits spread across the page.
		w := int((uint64(id) * 0x9e3779b97f4a7c15 >> 17) % uint64(words))
		dst[w*8] ^= 0x41
		return
	}
	if b.inj.Hit(fault.SiteECCSingle, uint64(id)) {
		w := int((uint64(id) * 0xbf58476d1ce4e5b9 >> 17) % uint64(words))
		dst[w*8] ^= 0x01
	}
}

// quarantinePage handles an uncorrectable ECC verification: the page
// joins the quarantine list and, when a staging copy of the original
// bytes exists, the swap-in is re-served intact from it. Only when no
// copy is available does the caller surface data loss, as a typed
// *UncorrectableError.
//
//xfm:allocok quarantine is the uncorrectable-ECC cold path, never steady-state work
func (b *Backend) quarantinePage(id sfm.PageID, bad int, dst []byte) error {
	if _, dup := b.quarantined[id]; !dup {
		gmQuarantinedPages.Add(1)
	}
	b.quarantined[id] = bad
	if c, ok := b.staging[id]; ok && len(c) == len(dst) {
		copy(dst, c)
		gmQuarantineServed.Inc()
		return nil
	}
	return &UncorrectableError{Page: id, BadWords: bad}
}

// QuarantinedPages returns how many pages are on the quarantine list.
func (b *Backend) QuarantinedPages() int { return len(b.quarantined) }

// QuarantineServed returns how many quarantined swap-ins were re-served
// from staging copies, process-wide.
func QuarantineServed() int64 { return gmQuarantineServed.Value() }

// recordECC accumulates one page's verification result.
func (b *Backend) recordECC(corrected, bad int) {
	b.eccCorrected.Add(int64(corrected))
	gmECCCorrected.Add(int64(corrected))
	b.eccUncorrectable.Add(int64(bad))
	gmECCUncorrectable.Add(int64(bad))
}

//xfm:hotpath
func (b *Backend) submitOrFallback(req nma.Request, kind nma.OpKind) {
	d := b.deg
	if d == nil {
		// Default path: §6's stateless per-op fallback, no breaker.
		if ok, err := b.submitOnce(req); err != nil || !ok {
			b.recordFallback(kind)
			return
		}
		b.offloads.Inc()
		gmOffloads.Inc()
		return
	}
	switch Mode(d.mode.Load()) {
	case ModeCPUOnly:
		// Breaker open: skip the MMIO round trip entirely; after
		// ReprobeAfter absorbed ops, start probing with canaries.
		d.cpuOps++
		if d.cpuOps >= d.policy.ReprobeAfter {
			b.transition(ModeRecovering, req.Arrive)
		}
		b.recordFallback(kind)
		return
	case ModeRecovering:
		// Canary probe: a real op, but one failure re-opens the
		// breaker immediately instead of feeding the sliding window.
		gmCanaryProbes.Inc()
		if ok, err := b.submitOnce(req); err != nil || !ok {
			gmCanaryFailures.Inc()
			b.transition(ModeCPUOnly, req.Arrive)
			b.recordFallback(kind)
			return
		}
		d.canaryOK++
		if d.canaryOK >= d.policy.CanarySuccesses {
			b.transition(ModeHealthy, req.Arrive)
		}
		b.offloads.Inc()
		gmOffloads.Inc()
		return
	}
	ok, err := b.submitOnce(req)
	if err == ErrOpTimeout {
		gmOpTimeouts.Inc()
		if d.policy.RetryOnce {
			// Per-op deadline policy: retry once (a fresh submission
			// sequence number, so injection draws fresh), then fall
			// back to the CPU.
			gmOpRetries.Inc()
			ok, err = b.submitOnce(req)
			if err == ErrOpTimeout {
				gmOpTimeouts.Inc()
			}
		}
	}
	// Only op-deadline failures feed the breaker window: a queue
	// rejection is §6's designed backpressure path (one CPU fallback),
	// not a hardware-health signal, so sustained storms or spurious
	// queue-fulls degrade throughput without opening the breaker.
	fail := err != nil
	d.recordOutcome(fail)
	if fail {
		if d.failures >= d.policy.TripFailures {
			b.transition(ModeCPUOnly, req.Arrive)
		} else if d.failures >= d.policy.DegradeFailures {
			b.transition(ModeDegraded, req.Arrive)
		}
		b.recordFallback(kind)
		return
	}
	if Mode(d.mode.Load()) == ModeDegraded && d.failures < d.policy.DegradeFailures {
		b.transition(ModeHealthy, req.Arrive)
	}
	if !ok {
		b.recordFallback(kind)
		return
	}
	b.offloads.Inc()
	gmOffloads.Inc()
}

// submitOnce runs one §6 submission: lazy SPM occupancy check, MMIO
// sync when the inferred bound is exhausted, then the queue doorbell.
//
//xfm:hotpath
func (b *Backend) submitOnce(req nma.Request) (bool, error) {
	cfg := b.driver.Sim().Config()
	// Upper bound: every submitted-but-unobserved offload may still
	// hold a page in the SPM. When the bound says the SPM is full,
	// poll the completion counter once to shrink it.
	outstanding := b.offloads.Value() - b.completedSeen.Load()
	if (outstanding+1)*int64(cfg.PageBytes) > int64(cfg.SPMBytes) {
		b.completedSeen.Store(b.driver.PollCompletions())
		b.spmSyncs.Inc()
		gmSPMSyncs.Inc()
	}
	return b.driver.Submit(req)
}

// Contains implements sfm.Backend.
func (b *Backend) Contains(id sfm.PageID) bool { return b.inner.Contains(id) }

// Compact implements sfm.Backend: xfm_compact() shifts compressed
// pages with memcpys (§6).
func (b *Backend) Compact() int64 { return b.inner.Compact() }

// Stats implements sfm.Backend. CPU cycles reflect only fallback work;
// offloaded operations cost no host cycles. The snapshot is safe to
// take from any goroutine while batches are in flight: every field it
// reads is an atomic telemetry counter, and the inner store's Stats
// are themselves synchronized when the store is sharded.
func (b *Backend) Stats() sfm.BackendStats {
	s := b.inner.Stats()
	s.CPUCycles = b.cpuCycles.Value()
	s.Offloads = b.offloads.Value()
	s.Fallbacks = b.fallbacks.Value()
	return s
}

// SPMSyncs returns how many MMIO occupancy resynchronizations the lazy
// tracking needed.
func (b *Backend) SPMSyncs() int64 { return b.spmSyncs.Value() }

// ECCStats returns (parity bytes generated, words corrected, words
// uncorrectable) for the side-band ECC path. Like Stats, it is a
// race-free snapshot under concurrent batch swaps.
func (b *Backend) ECCStats() (parityBytes, corrected, uncorrectable int64) {
	return b.parityBytes.Value(), b.eccCorrected.Value(), b.eccUncorrectable.Value()
}

var _ sfm.Backend = (*Backend)(nil)

// String describes the backend configuration.
func (b *Backend) String() string {
	cfg := b.driver.Sim().Config()
	return fmt.Sprintf("xfm.Backend{codec=%s spm=%dKiB acc/tRFC=%d}",
		b.codec.Name(), cfg.SPMBytes>>10, cfg.AccessesPerTRFC)
}
