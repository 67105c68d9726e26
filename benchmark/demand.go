package main

import (
	"bytes"
	"fmt"
	"time"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/workload"
	"xfm/internal/xfm"
)

// demandInst drives demand_single: page faults served one at a time.
//
// The working set is wset pages; `resident` of them sit in a FIFO ring,
// the rest are far (swapped out in set-up). One fault draws a page id
// from a seeded Zipf(1.1) — redrawn while it names a resident page —
// swaps it in on the demand path (offload=false, the §6 default),
// byte-verifies it, and evicts the ring's oldest page with a
// single-page SwapOut. The victim is never the faulted page, so the
// store's slots churn and fragment; Compact runs once per round, outside
// the latency samples. Sim time advances 2·tREFI per fault.
type demandInst struct {
	sz    sizes
	pages [][]byte
	be    *xfm.Backend
	zipf  *workload.ZipfAccess

	resident []bool
	ring     []int
	head     int
	dst      []byte

	now, step dram.Ps

	outNs, inNs       []int64
	attempted, failed int64
	peak              sfm.BackendStats
	compactNs         int64     // last round's Compact()
	calls             []nmaCall // the last traced round's driver interactions
	genMs             float64
}

func newXFMSingle(codec compress.Codec) (*xfm.Backend, error) {
	return xfm.NewBackend(codec, regionBytes, xfm.NewDriver(nma.NewSim(nmaConfig())), mapping())
}

func setUpDemand(e env) (instance, error) {
	pages, genMs, err := mixedCorpus(e.seed, e.sz.wset)
	if err != nil {
		return nil, err
	}
	be, err := newXFMSingle(e.codec(compress.NewLZFast()))
	if err != nil {
		return nil, err
	}
	d := &demandInst{
		sz: e.sz, pages: pages, be: be, genMs: genMs,
		zipf:     workload.NewZipfAccess(e.seed, len(pages), 1.1),
		resident: make([]bool, len(pages)),
		ring:     make([]int, e.sz.resident),
		dst:      make([]byte, sfm.PageSize),
		step:     2 * nmaConfig().Timings.TREFI,
	}
	for i := range pages {
		if i < len(d.ring) {
			d.ring[i], d.resident[i] = i, true
			continue
		}
		d.now += d.step
		if err := be.SwapOut(d.now, sfm.PageID(i), pages[i]); err != nil {
			return nil, fmt.Errorf("demand_single: populate page %d: %w", i, err)
		}
	}
	d.round(nil)
	d.outNs, d.inNs = d.outNs[:0], d.inNs[:0]
	return d, nil
}

func (d *demandInst) round(tr *tracer) int64 {
	if tr != nil {
		d.calls = d.calls[:0]
	}
	r := tr.begin("round", "bench")
	for f := 0; f < d.sz.faults; f++ {
		id := d.zipf.Next()
		for d.resident[id] {
			id = d.zipf.Next()
		}
		d.now += d.step
		clear(d.dst)
		s := tr.begin("SwapIn", "xfm")
		t0 := time.Now()
		err := d.be.SwapIn(d.now, sfm.PageID(id), d.dst, false)
		d.inNs = append(d.inNs, time.Since(t0).Nanoseconds())
		tr.end(s)
		if err != nil || !bytes.Equal(d.dst, d.pages[id]) {
			d.failed++
		}
		victim := d.ring[d.head]
		d.ring[d.head] = id
		d.head = (d.head + 1) % len(d.ring)
		d.resident[victim], d.resident[id] = false, true
		s = tr.begin("SwapOut", "xfm")
		t0 = time.Now()
		err = d.be.SwapOut(d.now, sfm.PageID(victim), d.pages[victim])
		d.outNs = append(d.outNs, time.Since(t0).Nanoseconds())
		tr.end(s)
		if err != nil {
			d.failed++
		}
		if tr != nil {
			d.calls = append(d.calls,
				nmaCall{now: d.now}, // the demand swap-in: clock only
				callFor(mapping(), d.now, nma.CompressOp, sfm.PageID(victim)))
		}
	}
	d.attempted += 2 * int64(d.sz.faults)
	d.peak = d.be.Stats()
	s := tr.begin("Compact", "zsmalloc")
	t0 := time.Now()
	d.be.Compact()
	d.compactNs = time.Since(t0).Nanoseconds()
	tr.end(s)
	tr.end(r)
	return int64(d.sz.faults)
}

func (d *demandInst) latencies() (out, in []int64) { return d.outNs, d.inNs }

func (d *demandInst) counts() (attempted, failed int64) { return d.attempted, d.failed }

func (d *demandInst) corpusMs() float64 { return d.genMs }

// hostMetrics adds the demand fault's tail: p95 and p99 of SwapIn.
func (d *demandInst) hostMetrics(m metrics, samples map[string]int, _ float64) {
	in := sortedCopy(d.inNs)
	m["demand_swapin_p95_us"] = float64(percentile(in, 95)) / 1e3
	m["xfm.swapin_demand_p99_us"] = float64(percentile(in, 99)) / 1e3
	samples["demand_swapin_p95_us"], samples["xfm.swapin_demand_p99_us"] = len(in), len(in)
}

func (d *demandInst) snapshot(m metrics) {
	sfmSnapshot(m, d.be.Stats(), d.peak)
	xfmSnapshot(m, d.be)
}

func (d *demandInst) close() { d.be.Close() }

func (d *demandInst) replay(m metrics, tracedNs int64, tc *timingCodec) ([]attribution, error) {
	m.offPath("workload.", "parallel.", "sfm.parallel_efficiency", "sim_windows_per_s")
	m["zsmalloc.compact_ms"] = float64(d.compactNs) / 1e6
	codec := compress.NewLZFast()
	tc.report(m, tracedNs, 1)
	replayCopy(m, d.pages)
	replayECC(m, d.pages, d.sz.eccReplayPages)
	if err := replayZsmalloc(m, storedPayloads(codec, d.pages)); err != nil {
		return nil, err
	}
	replayRbtree(m, pageIDs(0, len(d.pages)))
	if err := replaySFMSelf(m, codec, d.pages); err != nil {
		return nil, err
	}

	// The offload path's own cost per single-page call: the XFM backend
	// with ECC off, less the bare store, over the same pages (over the
	// stored codec; see storedCodec).
	var driveErr error
	drive := func(be sfm.Backend, now *dram.Ps) int64 {
		ns, err := driveSingle(be, d.pages, now, d.step)
		if err != nil {
			driveErr = err
		}
		return ns
	}
	x, err := newXFMSingle(storedCodec{})
	if err != nil {
		return nil, err
	}
	x.SetECC(false)
	var xfmNow, storeNow dram.Ps
	xfmNs := medianNs(func() int64 { return drive(x, &xfmNow) })
	x.Close()
	store := sfm.NewCPUBackend(storedCodec{}, regionBytes)
	storeNs := medianNs(func() int64 { return drive(store, &storeNow) })
	if driveErr != nil {
		return nil, driveErr
	}
	m["xfm.self_us_per_page"] = (xfmNs - storeNs) / 1e3 / float64(2*len(d.pages))
	if err := replaySubmit(m, d.calls); err != nil {
		return nil, err
	}
	replayAdvanceIdle(m, 2)
	f := float64(d.sz.faults)
	return attribute(m, tracedNs, 1, f, f, tc, f), nil
}
