package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/ecc"
	"xfm/internal/nma"
	"xfm/internal/parallel"
	"xfm/internal/rbtree"
	"xfm/internal/sfm"
	"xfm/internal/xfm"
	"xfm/internal/zsmalloc"
)

// Layer replay: the traced round's inputs driven single-threaded
// against one lower layer's public API at a time. What a layer costs
// alone, on this workload's data, is what an optimisation of that layer
// can at most save.

// replayReps is how often a micro-replay repeats; the median is kept.
const replayReps = 3

func medianNs(fn func() int64) float64 {
	var runs [replayReps]int64
	for i := range runs {
		runs[i] = fn()
	}
	return medianOf(runs)
}

func medianOf(runs [replayReps]int64) float64 {
	sort.Slice(runs[:], func(i, j int) bool { return runs[i] < runs[j] })
	return float64(runs[replayReps/2])
}

// replayCopy is the speed of light: one 4 KiB copy per page op.
func replayCopy(m metrics, pages [][]byte) {
	dst := make([]byte, sfm.PageSize)
	ns := medianNs(func() int64 {
		t0 := time.Now()
		for _, p := range pages {
			copy(dst, p)
		}
		return time.Since(t0).Nanoseconds()
	})
	m["host.copy_us_per_page"] = ns / 1e3 / float64(len(pages))
}

// replayECC times side-band parity generation and verification on the
// first limit pages (the working set is shuffled, and SECDED time does
// not depend on the data).
func replayECC(m metrics, pages [][]byte, limit int) {
	if len(pages) > limit {
		pages = pages[:limit]
	}
	pars := make([][]byte, len(pages))
	t0 := time.Now()
	for i, p := range pages {
		pars[i] = ecc.PageParity(p)
	}
	parity := time.Since(t0)
	t0 = time.Now()
	for i, p := range pages {
		ecc.VerifyPage(p, pars[i])
	}
	verify := time.Since(t0)
	m["ecc.parity_us_per_page"] = float64(parity.Nanoseconds()) / 1e3 / float64(len(pages))
	m["ecc.verify_us_per_page"] = float64(verify.Nanoseconds()) / 1e3 / float64(len(pages))
}

// storedPayloads returns the bytes the SFM store hands to zsmalloc for
// these pages — nothing for a same-filled page, the raw page when the
// codec cannot shrink it, else the compressed form (sfm's stageOut
// rules). The codecs are deterministic, so recomputing the payloads
// here gives the traced round's exact bytes without the decorator
// having to copy them out of the hot path.
func storedPayloads(codec compress.Codec, pages [][]byte) [][]byte {
	var out [][]byte
	for _, p := range pages {
		if sameFilled(p) {
			continue
		}
		comp := codec.Compress(nil, p)
		if len(comp) >= sfm.PageSize {
			comp = p
		}
		out = append(out, comp)
	}
	return out
}

func sameFilled(p []byte) bool {
	w := binary.LittleEndian.Uint64(p)
	for off := 8; off+8 <= len(p); off += 8 {
		if binary.LittleEndian.Uint64(p[off:]) != w {
			return false
		}
	}
	return true
}

func replayZsmalloc(m metrics, payloads [][]byte) error {
	var alloc, get, free [replayReps]int64
	handles := make([]zsmalloc.Handle, len(payloads))
	buf := make([]byte, 0, sfm.PageSize)
	for r := 0; r < replayReps; r++ {
		a := zsmalloc.New(regionBytes)
		t0 := time.Now()
		for i, p := range payloads {
			h, err := a.Alloc(p)
			if err != nil {
				return fmt.Errorf("zsmalloc replay: alloc: %w", err)
			}
			handles[i] = h
		}
		alloc[r] = time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for _, h := range handles {
			if _, err := a.Get(buf[:0], h); err != nil {
				return fmt.Errorf("zsmalloc replay: get: %w", err)
			}
		}
		get[r] = time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for _, h := range handles {
			if err := a.Free(h); err != nil {
				return fmt.Errorf("zsmalloc replay: free: %w", err)
			}
		}
		free[r] = time.Since(t0).Nanoseconds()
	}
	n := float64(len(payloads))
	m["zsmalloc.alloc_ns_per_op"] = medianOf(alloc) / n
	m["zsmalloc.get_ns_per_op"] = medianOf(get) / n
	m["zsmalloc.free_ns_per_op"] = medianOf(free) / n
	return nil
}

// replayRbtree times the page index alone over the round's ids, at the
// working-set size.
func replayRbtree(m metrics, ids []sfm.PageID) {
	var put, get, del [replayReps]int64
	for r := 0; r < replayReps; r++ {
		t := rbtree.New[sfm.PageID, int](func(a, b sfm.PageID) bool { return a < b })
		t0 := time.Now()
		for i, id := range ids {
			t.Put(id, i)
		}
		put[r] = time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for _, id := range ids {
			t.Get(id)
		}
		get[r] = time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for _, id := range ids {
			t.Delete(id)
		}
		del[r] = time.Since(t0).Nanoseconds()
	}
	n := float64(len(ids))
	m["rbtree.put_ns_per_op"] = medianOf(put) / n
	m["rbtree.get_ns_per_op"] = medianOf(get) / n
	m["rbtree.delete_ns_per_op"] = medianOf(del) / n
}

// replaySFMSelf runs the serial sfm.CPUBackend over the pages with a
// timing codec underneath and reports the store's self time per page:
// each SwapOut/SwapIn span minus the codec child spans inside it.
func replaySFMSelf(m metrics, codec compress.Codec, pages [][]byte) error {
	tr := newTracer()
	be := sfm.NewCPUBackend(&timingCodec{inner: codec, tr: tr}, regionBytes)
	dst := make([]byte, sfm.PageSize)
	for i, p := range pages {
		s := tr.begin("SwapOut", "sfm")
		err := be.SwapOut(0, sfm.PageID(i), p)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("sfm replay: swap out page %d: %w", i, err)
		}
	}
	for i := range pages {
		s := tr.begin("SwapIn", "sfm")
		err := be.SwapIn(0, sfm.PageID(i), dst, false)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("sfm replay: swap in page %d: %w", i, err)
		}
	}
	var out, in int64
	for i, ns := range selfTimes(tr.spans) {
		switch tr.spans[i].Name {
		case "SwapOut":
			out += ns
		case "SwapIn":
			in += ns
		}
	}
	m["sfm.self_us_per_page_out"] = float64(out) / 1e3 / float64(len(pages))
	m["sfm.self_us_per_page_in"] = float64(in) / 1e3 / float64(len(pages))
	return nil
}

// driveSingle swaps every page out and back in through the single-page
// API (demand swap-ins) and returns the wall time; *now advances by step
// per operation, as in demand_single, and carries over to the next call
// on the same backend.
func driveSingle(be sfm.Backend, pages [][]byte, now *dram.Ps, step dram.Ps) (int64, error) {
	dst := make([]byte, sfm.PageSize)
	t0 := time.Now()
	for i, p := range pages {
		*now += step
		if err := be.SwapOut(*now, sfm.PageID(i), p); err != nil {
			return 0, fmt.Errorf("replay: swap out page %d: %w", i, err)
		}
	}
	for i := range pages {
		*now += step
		if err := be.SwapIn(*now, sfm.PageID(i), dst, false); err != nil {
			return 0, fmt.Errorf("replay: swap in page %d: %w", i, err)
		}
	}
	return time.Since(t0).Nanoseconds(), nil
}

// replayDispatch times the worker pool's fan-out alone: a batch-sized
// Run of no-ops.
func replayDispatch(m metrics, batch int) {
	const runs = 2000
	p := parallel.NewPool(0)
	defer p.Close()
	p.Run(batch, 0, func(_, _ int) {})
	ns := medianNs(func() int64 {
		t0 := time.Now()
		for i := 0; i < runs; i++ {
			p.Run(batch, 0, func(_, _ int) {})
		}
		return time.Since(t0).Nanoseconds()
	})
	m["parallel.dispatch_ns_per_item"] = ns / runs / float64(batch)
}

// replaySubmit replays the traced round's driver interactions twice:
// through a fresh xfm.Driver (MMIO accounting + the sim underneath) and
// against a bare nma.Sim, which is the sim's own host cost for the same
// requests and windows.
func replaySubmit(m metrics, calls []nmaCall) error {
	var reqs int
	for _, c := range calls {
		reqs += len(c.reqs)
	}
	var windows int64
	var paramErr error
	viaDriver := medianNs(func() int64 {
		d := xfm.NewDriver(nma.NewSim(nmaConfig()))
		if err := d.Paramset(0, regionBytes); err != nil {
			paramErr = err
			return 0
		}
		t0 := time.Now()
		for _, c := range calls {
			d.AdvanceTo(c.now)
			for _, r := range c.reqs {
				d.Submit(r) //nolint:errcheck // a rejection is a CPU fallback, the path under test
			}
		}
		return time.Since(t0).Nanoseconds()
	})
	if paramErr != nil {
		return fmt.Errorf("submit replay: %w", paramErr)
	}
	bare := medianNs(func() int64 {
		s := nma.NewSim(nmaConfig())
		t0 := time.Now()
		for _, c := range calls {
			s.AdvanceTo(c.now)
			for _, r := range c.reqs {
				s.Submit(r)
			}
		}
		ns := time.Since(t0).Nanoseconds()
		windows = s.Stats().Windows
		return ns
	})
	m["xfm.submit_ns_per_req"] = ratio(viaDriver, float64(reqs))
	m["nma.host_ns_per_request"] = ratio(bare, float64(reqs))
	m["nma.host_ns_per_window"] = ratio(bare, float64(windows))
	return nil
}

// replayAdvanceIdle times AdvanceTo over an empty horizon of `windows`
// refresh windows — the idle fast-forward the batch workloads cross
// between calls.
func replayAdvanceIdle(m metrics, windows int64) {
	const calls = 10000
	cfg := nmaConfig()
	ns := medianNs(func() int64 {
		s := nma.NewSim(cfg)
		var now dram.Ps
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			now += windows * cfg.Timings.TREFI
			s.AdvanceTo(now)
		}
		return time.Since(t0).Nanoseconds()
	})
	m["nma.advance_idle_ns_per_call"] = ns / calls
}

// attribution is one row of the traced round's time budget.
type attribution struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
}

// attribute splits the traced round's wall time over the layers, using
// in-situ codec time and the replays' per-operation costs, and records
// what is left as host.attribution_residual_pct. Work that fans out
// (codec, ECC, the sharded store) is charged at busy ÷ workers, the
// wall time it would take perfectly balanced, so scheduling loss lands
// in the residual with the benchmark's own loop. zsmalloc and rbtree
// are inside sfm's self time and are not charged again; the sim's cost
// is taken out of xfm's.
func attribute(m metrics, tracedNs int64, workers int, outs, ins float64, tc *timingCodec, reqs float64) []attribution {
	w := float64(workers)
	rows := []attribution{
		{"compress", float64(tc.busyNs()) / w / 1e6},
		{"ecc", (m["ecc.parity_us_per_page"]*outs + m["ecc.verify_us_per_page"]*ins) / w / 1e3},
		{"sfm", (m["sfm.self_us_per_page_out"]*outs + m["sfm.self_us_per_page_in"]*ins) / w / 1e3},
	}
	nmaMs := m["nma.host_ns_per_request"] * reqs / 1e6
	rows = append(rows,
		attribution{"xfm", m["xfm.self_us_per_page"]*(outs+ins)/1e3 - nmaMs},
		attribution{"nma", nmaMs})
	total := float64(tracedNs) / 1e6
	var sum float64
	for _, r := range rows {
		sum += r.Ms
	}
	rows = append(rows, attribution{"residual", total - sum})
	m["host.attribution_residual_pct"] = ratio(total-sum, total) * 100
	return rows
}
