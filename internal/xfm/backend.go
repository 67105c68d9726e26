package xfm

import (
	"fmt"
	"sync/atomic"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
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
	inner  sfm.Backend
	driver *Driver
	mapp   memctrl.Mapping

	// Lazy SPM occupancy tracking (§6): the backend assumes every
	// submitted offload still occupies the SPM until a completion-
	// counter poll (an MMIO read) proves otherwise, so the common-case
	// submission path touches no hardware registers.
	completedSeen atomic.Int64
	spmSyncs      telemetry.Counter

	// Mutation of these counters happens only on the serial submission
	// path (single-page calls and the serial phase of a batch), but
	// Stats() may be called from other goroutines while a batch is in
	// flight, so every counter a snapshot reads is an atomic telemetry
	// counter.
	nextReq   int64 // serial-phase only, never read by snapshots
	offloads  telemetry.Counter
	fallbacks telemetry.Counter
	cpuCycles telemetry.FloatCounter
	codec     compress.Codec

	// integ is the side-band ECC and fault-injection state
	// (integrity.go).
	integ *integrity

	// one is the single-page calls' batch of one: the backend is
	// single-owner on the serial path (see nextReq), so SwapOut/SwapIn
	// run the batch protocol over this scratch without allocating.
	one struct {
		out  [1]sfm.PageOut
		in   [1]sfm.PageIn
		errs [1]error
	}
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
	b.integ.workers = workers
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
	return &Backend{
		inner:  inner,
		driver: driver,
		mapp:   m,
		codec:  codec,
		integ:  newIntegrity(),
	}, nil
}

// SetInjector arms deterministic fault injection (nil disarms): the
// injector reaches the driver's submission path, the NMA sim's storm
// schedule, and this backend's ECC verification images.
func (b *Backend) SetInjector(in *fault.Injector) {
	b.integ.inj = in
	b.driver.SetInjector(in)
}

// Close releases the backend's worker pool (and the inner store's,
// when it has one). Optional: idle workers only park on a channel.
func (b *Backend) Close() {
	b.integ.pool.Close()
	if c, ok := b.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// SetECC enables or disables side-band parity regeneration; it is on
// by default (commodity servers run ECC DIMMs, §4.1).
func (b *Backend) SetECC(on bool) { b.integ.on = on }

// Driver returns the backend's driver.
func (b *Backend) Driver() *Driver { return b.driver }

// pageGroup derives the refresh group of the DRAM row(s) holding a
// page-aligned address. All banks refresh the same row index during a
// window and the page's two interleaved banks share one row (Fig. 6a),
// so a page maps to a single group.
func pageGroup(m memctrl.Mapping, addr int64) int {
	addr %= m.TotalBytes()
	if addr < 0 {
		addr += m.TotalBytes()
	}
	return m.Device.RowRefreshGroup(m.Decompose(addr).Row)
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
	return base + (int64(id)*sfm.PageSize)%size
}

// SwapOut implements sfm.Backend: xfm_swap_out(). The cold page is
// read from its local rows (source group) and its compressed form is
// written into the SFM region (destination group). If the NMA rejects
// the request the CPU performs the compression (CPU_Fallback).
func (b *Backend) SwapOut(now dram.Ps, id sfm.PageID, data []byte) error {
	if err := b.inner.SwapOut(now, id, data); err != nil {
		return err
	}
	b.one.out[0], b.one.errs[0] = sfm.PageOut{ID: id, Data: data}, nil
	b.offloadOut(now, b.one.out[:], b.one.errs[:])
	b.one.out[0].Data = nil
	return nil
}

// SwapIn implements sfm.Backend: xfm_swap_in(). Demand faults
// (offload=false) always run on the CPU — "CPU_Fallback is called by
// default unless the do_offload parameter is asserted" (§6) — because
// the NMA datapath adds at least 2×tREFI of latency (Fig. 10).
// Prefetches (offload=true) go to the NMA.
func (b *Backend) SwapIn(now dram.Ps, id sfm.PageID, dst []byte, offload bool) error {
	if err := b.inner.SwapIn(now, id, dst, offload); err != nil {
		return err
	}
	b.one.in[0], b.one.errs[0] = sfm.PageIn{ID: id, Dst: dst}, nil
	b.offloadIn(now, b.one.in[:], b.one.errs[:], offload)
	b.one.in[0].Dst = nil
	return b.one.errs[0]
}

// offloadOut is the XFM half of xfm_swap_out() for every page the inner
// store accepted (errs[i] == nil): parity regeneration (§4.1: "the NMA
// calculates the parity bits and stores them in the ECC DRAM chips,
// when writing back"), then one offload submission per page in input
// order. It is the only implementation — a single-page call is a batch
// of one — and driver.AdvanceTo is idempotent at a fixed timestamp, so
// a batch leaves the same stats and NMA accounting as a page-at-a-time
// loop.
func (b *Backend) offloadOut(now dram.Ps, pages []sfm.PageOut, errs []error) {
	b.integ.stageOut(pages, errs)
	b.driver.AdvanceTo(now)
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		b.integ.settleOut(i)
		b.submitOrFallback(now, nma.CompressOp, b.localAddr(p.ID), b.regionAddr(p.ID))
	}
}

// offloadIn is the XFM half of xfm_swap_in(): parity verification of
// every page the inner store returned, then per page in input order the
// verdict (an uncorrectable page fails here, into errs[i]) and either
// the CPU charge of a demand fault or an offload submission.
func (b *Backend) offloadIn(now dram.Ps, pages []sfm.PageIn, errs []error, offload bool) {
	b.integ.stageIn(pages, errs)
	b.driver.AdvanceTo(now)
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		if errs[i] = b.integ.settleIn(i, p.ID); errs[i] != nil {
			continue
		}
		if !offload {
			b.recordFallback(nma.DecompressOp)
			continue
		}
		b.submitOrFallback(now, nma.DecompressOp, b.regionAddr(p.ID), b.localAddr(p.ID))
	}
}

// recordFallback charges one CPU-executed swap operation.
func (b *Backend) recordFallback(kind nma.OpKind) {
	b.fallbacks.Inc()
	telemetry.XFMFallbacks.Inc()
	b.cpuCycles.Add(fallbackCycles(b.codec, kind))
}

// fallbackCycles is the modelled host cost of running one page's
// (de)compression on the CPU.
func fallbackCycles(c compress.Codec, kind nma.OpKind) float64 {
	if kind == nma.CompressOp {
		return c.Info().CompressCyclesPerByte * sfm.PageSize
	}
	return c.Info().DecompressCyclesPerByte * sfm.PageSize
}

// submitOrFallback builds the offload request for a page moving from
// address src to dst and runs the §6 submission protocol: lazy
// occupancy check, MMIO sync when the inferred SPM bound is exhausted,
// then an MMIO write into the request queue. This is the backend's
// whole policy for a failed offload: whatever the reason the NMA did
// not take the op (a full request queue or SPM, or a driver error), the
// CPU performs it, once, and the next op tries the NMA again — §6's
// stateless CPU_Fallback.
func (b *Backend) submitOrFallback(now dram.Ps, kind nma.OpKind, src, dst int64) {
	b.nextReq++
	req := nma.Request{
		ID:       b.nextReq,
		Kind:     kind,
		SrcGroup: pageGroup(b.mapp, src),
		DstGroup: pageGroup(b.mapp, dst),
		Arrive:   now,
	}
	if ok, err := b.submitOnce(req); err != nil || !ok {
		b.recordFallback(kind)
		return
	}
	b.offloads.Inc()
	telemetry.XFMOffloads.Inc()
}

// submitOnce runs one §6 submission: lazy SPM occupancy check, MMIO
// sync when the inferred bound is exhausted, then the queue doorbell.
func (b *Backend) submitOnce(req nma.Request) (bool, error) {
	cfg := b.driver.Sim().Config()
	// Upper bound: every submitted-but-unobserved offload may still
	// hold a page in the SPM. When the bound says the SPM is full,
	// poll the completion counter once to shrink it.
	outstanding := b.offloads.Value() - b.completedSeen.Load()
	if (outstanding+1)*int64(cfg.PageBytes) > int64(cfg.SPMBytes) {
		b.completedSeen.Store(b.driver.PollCompletions())
		b.spmSyncs.Inc()
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
	return b.integ.parityBytes.Value(), b.integ.corrected.Value(), b.integ.uncorrectable.Value()
}

var _ sfm.Backend = (*Backend)(nil)

// String describes the backend configuration.
func (b *Backend) String() string {
	cfg := b.driver.Sim().Config()
	return fmt.Sprintf("xfm.Backend{codec=%s spm=%dKiB acc/tRFC=%d}",
		b.codec.Name(), cfg.SPMBytes>>10, cfg.AccessesPerTRFC)
}
