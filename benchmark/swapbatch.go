package main

import (
	"bytes"
	"time"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/nma"
	"xfm/internal/parallel"
	"xfm/internal/sfm"
	"xfm/internal/xfm"
)

// batchInst drives xfm_batch and cpu_batch: the same pages, batches and
// calls against the XFM backend or the CPU baseline.
//
// One round swaps the whole working set out in batch-sized calls, then
// back in (prefetch: offload=true) in the same batches, byte-verifying
// every page. Sim time advances gapWindows·tREFI before each call, so
// the sim crosses an idle horizon between bursts as it does under a
// control plane that batches per scan interval.
type batchInst struct {
	sz    sizes
	pages [][]byte
	outs  []sfm.PageOut
	ins   []sfm.PageIn
	dst   []byte // the swap-in destinations, page i at [i*PageSize:]
	be    sfm.Backend
	x     *xfm.Backend // nil on cpu_batch
	layer string       // span layer of the swap calls: "xfm" or "sfm"

	now, step dram.Ps

	outNs, inNs       []int64
	attempted, failed int64
	peak              sfm.BackendStats
	calls             []nmaCall // the last traced round's driver interactions
	genMs             float64
}

const gapWindows = 1024

func setUpBatch(e env, offload bool) (instance, error) {
	pages, genMs, err := mixedCorpus(e.seed, e.sz.pages)
	if err != nil {
		return nil, err
	}
	codec := e.codec(compress.NewXDeflate())
	var b *batchInst
	if offload {
		x, err := newXFMSharded(codec)
		if err != nil {
			return nil, err
		}
		b = newBatchInst(e.sz, pages, x, x)
	} else {
		b = newBatchInst(e.sz, pages, sfm.NewShardedBackend(codec, regionBytes, shards, 0), nil)
	}
	b.genMs = genMs
	b.warmUp()
	return b, nil
}

func newXFMSharded(codec compress.Codec) (*xfm.Backend, error) {
	return xfm.NewShardedBackend(codec, regionBytes, shards, 0, xfm.NewDriver(nma.NewSim(nmaConfig())), mapping())
}

func newBatchInst(sz sizes, pages [][]byte, be sfm.Backend, x *xfm.Backend) *batchInst {
	b := &batchInst{
		sz: sz, pages: pages, be: be, x: x, layer: "sfm",
		step: gapWindows * nmaConfig().Timings.TREFI,
		outs: make([]sfm.PageOut, len(pages)),
		ins:  make([]sfm.PageIn, len(pages)),
		dst:  make([]byte, len(pages)*sfm.PageSize),
	}
	if x != nil {
		b.layer = "xfm"
	}
	for i, p := range pages {
		b.outs[i] = sfm.PageOut{ID: sfm.PageID(i), Data: p}
		b.ins[i] = sfm.PageIn{ID: sfm.PageID(i), Dst: b.dst[i*sfm.PageSize : (i+1)*sfm.PageSize]}
	}
	return b
}

// warmUp runs the untimed round that ends set-up: worker pools spawn,
// arenas and zsmalloc pages reach their steady size.
func (b *batchInst) warmUp() {
	b.round(nil)
	b.outNs, b.inNs = b.outNs[:0], b.inNs[:0]
}

func (b *batchInst) round(tr *tracer) int64 {
	if tr != nil {
		b.calls = b.calls[:0]
	}
	r := tr.begin("round", "bench")
	n, batch := len(b.pages), b.sz.batch
	for lo := 0; lo < n; lo += batch {
		b.now += b.step
		s := tr.begin("SwapOutBatch", b.layer)
		t0 := time.Now()
		errs := b.be.SwapOutBatch(b.now, b.outs[lo:lo+batch])
		b.outNs = append(b.outNs, time.Since(t0).Nanoseconds())
		tr.end(s)
		for _, err := range errs {
			if err != nil {
				b.failed++
			}
		}
		if tr != nil && b.x != nil {
			b.calls = append(b.calls, callFor(mapping(), b.now, nma.CompressOp, pageIDs(lo, batch)...))
		}
	}
	b.peak = b.be.Stats()
	for lo := 0; lo < n; lo += batch {
		ins := b.ins[lo : lo+batch]
		// A swap-in that did nothing must not pass on last round's bytes.
		clear(b.dst[lo*sfm.PageSize : (lo+batch)*sfm.PageSize])
		b.now += b.step
		s := tr.begin("SwapInBatch", b.layer)
		t0 := time.Now()
		errs := b.be.SwapInBatch(b.now, ins, true)
		b.inNs = append(b.inNs, time.Since(t0).Nanoseconds())
		tr.end(s)
		s = tr.begin("verify", "bench")
		for i, err := range errs {
			if err != nil || !bytes.Equal(ins[i].Dst, b.pages[lo+i]) {
				b.failed++
			}
		}
		tr.end(s)
		if tr != nil && b.x != nil {
			b.calls = append(b.calls, callFor(mapping(), b.now, nma.DecompressOp, pageIDs(lo, batch)...))
		}
	}
	b.attempted += 2 * int64(n)
	tr.end(r)
	return int64(n)
}

func pageIDs(lo, n int) []sfm.PageID {
	ids := make([]sfm.PageID, n)
	for i := range ids {
		ids[i] = sfm.PageID(lo + i)
	}
	return ids
}

func (b *batchInst) latencies() (out, in []int64) { return b.outNs, b.inNs }

func (b *batchInst) counts() (attempted, failed int64) { return b.attempted, b.failed }

func (b *batchInst) corpusMs() float64 { return b.genMs }

func (b *batchInst) hostMetrics(metrics, map[string]int, float64) {}

func (b *batchInst) snapshot(m metrics) {
	sfmSnapshot(m, b.be.Stats(), b.peak)
	if b.x != nil {
		xfmSnapshot(m, b.x)
	}
}

func (b *batchInst) close() {
	if c, ok := b.be.(interface{ Close() }); ok {
		c.Close()
	}
}

// timedRound runs one round of a warmed-up instance and returns its wall
// time.
func (b *batchInst) timedRound() int64 {
	t0 := time.Now()
	b.round(nil)
	return time.Since(t0).Nanoseconds()
}

func (b *batchInst) replay(m metrics, tracedNs int64, tc *timingCodec) ([]attribution, error) {
	m.offPath("workload.", "sim_windows_per_s", "demand_swapin_p95_us", "xfm.swapin_demand_p99_us", "zsmalloc.compact_ms")
	workers := parallel.Workers(0)
	codec := compress.NewXDeflate()
	tc.report(m, tracedNs, workers)
	replayCopy(m, b.pages)
	if err := replayZsmalloc(m, storedPayloads(codec, b.pages)); err != nil {
		return nil, err
	}
	replayRbtree(m, pageIDs(0, len(b.pages)))
	if err := replaySFMSelf(m, codec, b.pages); err != nil {
		return nil, err
	}
	replayDispatch(m, b.sz.batch)

	// The same batches through the bare store, serial and sharded: how
	// much of the serial time the fan-out wins back per worker.
	serialNs, err := driveSingle(sfm.NewCPUBackend(codec, regionBytes), b.pages, new(dram.Ps), 0)
	if err != nil {
		return nil, err
	}
	store := newBatchInst(b.sz, b.pages, sfm.NewShardedBackend(codec, regionBytes, shards, 0), nil)
	store.warmUp()
	shardedNs := store.timedRound()
	store.close()
	m["sfm.parallel_efficiency"] = ratio(float64(serialNs), float64(shardedNs)*float64(workers))

	var reqs float64
	if b.x == nil {
		m.offPath("ecc.", "xfm.", "nma.", "cpu_fallback_rate", "offload_latency_mean_trefi", "conditional_fraction")
	} else {
		replayECC(m, b.pages, b.sz.eccReplayPages)
		// The offload path's own serial phase: the XFM backend with ECC
		// off, less the store it wraps, on the same batches (over the
		// stored codec; see storedCodec).
		x, err := newXFMSharded(storedCodec{})
		if err != nil {
			return nil, err
		}
		x.SetECC(false)
		noECC := newBatchInst(b.sz, b.pages, x, x)
		bare := newBatchInst(b.sz, b.pages, sfm.NewShardedBackend(storedCodec{}, regionBytes, shards, 0), nil)
		noECC.warmUp()
		bare.warmUp()
		xfmNs, bareNs := medianNs(noECC.timedRound), medianNs(bare.timedRound)
		noECC.close()
		bare.close()
		m["xfm.self_us_per_page"] = (xfmNs - bareNs) / 1e3 / float64(2*len(b.pages))
		if err := replaySubmit(m, b.calls); err != nil {
			return nil, err
		}
		replayAdvanceIdle(m, gapWindows)
		reqs = float64(2 * len(b.pages))
	}
	n := float64(len(b.pages))
	return attribute(m, tracedNs, workers, n, n, tc, reqs), nil
}
