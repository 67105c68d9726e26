package xfm

import (
	"fmt"

	"xfm/internal/dram"
	"xfm/internal/ecc"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

// Batched swap paths. The XFM backends split each batch into a
// parallel phase (pure per-page work: (de)compression via the inner
// store, ECC parity math) and a serial phase (driver submissions,
// parity-map and slot bookkeeping) executed in input order. Because
// the serial phase runs in the same order a page-at-a-time loop would
// use, and driver.AdvanceTo is idempotent at a fixed timestamp, batch
// results, stats, and NMA accounting are identical to serial calls.

// eccBatch is the backend's reusable scratch for one batch's ECC
// fan-out: pars[i] is page i's parity buffer (nil = no ECC work), vs[i]
// its verification result. The serial phase fills pars and aliases the
// caller's batch for the duration of the Run; workers touch only slot
// i. The step funcs are bound once so a warm batch allocates no
// closure.
type eccBatch struct {
	outs []sfm.PageOut
	ins  []sfm.PageIn
	pars [][]byte
	vs   []eccVerdict

	parityFn, verifyFn func(w, i int)
}

type eccVerdict struct{ corrected, bad int }

// reset sizes the per-page slots for an n-page batch and clears pars.
func (sc *eccBatch) reset(n int) {
	if cap(sc.pars) < n {
		sc.pars = make([][]byte, n)
		sc.vs = make([]eccVerdict, n)
	}
	sc.pars, sc.vs = sc.pars[:n], sc.vs[:n]
	for i := range sc.pars {
		sc.pars[i] = nil
	}
}

//xfm:hotpath
func (b *Backend) parityStep(_, i int) {
	if p := b.batch.pars[i]; p != nil {
		ecc.PageParityInto(p, b.batch.outs[i].Data)
	}
}

//xfm:hotpath
func (b *Backend) verifyStep(_, i int) {
	if p := b.batch.pars[i]; p != nil {
		c, bad := ecc.VerifyPage(b.batch.ins[i].Dst, p)
		b.batch.vs[i] = eccVerdict{corrected: c, bad: bad}
	}
}

// SwapOutBatch implements sfm.Backend: the inner store compresses the
// batch (in parallel when the inner store is sharded), ECC parity is
// computed on every core, and the offload submissions replay serially.
func (b *Backend) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	hBatchPages.Observe(float64(len(pages)))
	errs := b.inner.SwapOutBatch(now, pages)
	sc := &b.batch
	sc.reset(len(pages))
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		if b.eccEnabled {
			sc.pars[i] = b.parityBuf(p.ID)
		} else {
			b.dropParity(p.ID)
		}
	}
	if b.eccEnabled {
		// §4.1: the NMA regenerates side-band parity when writing back.
		// Parity generation is pure per-page math — fan it out.
		sc.outs = pages
		b.pool.Run(len(pages), b.workers, sc.parityFn)
		sc.outs = nil
	}
	b.driver.AdvanceTo(now)
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		if par := sc.pars[i]; par != nil {
			b.parityBytes.Add(int64(len(par)))
		}
		if b.deg != nil {
			b.stageCopy(p.ID, p.Data)
		}
		b.nextReq++
		req := nma.Request{
			ID:       b.nextReq,
			Kind:     nma.CompressOp,
			SrcGroup: b.pageGroup(b.localAddr(p.ID)),
			DstGroup: b.pageGroup(b.regionAddr(p.ID)),
			Arrive:   now,
		}
		b.submitOrFallback(req, nma.CompressOp)
	}
	return errs
}

// SwapInBatch implements sfm.Backend: the inner store decompresses the
// batch, parity verification fans out over buffers looked up serially
// beforehand (workers never touch the parity map), and driver
// accounting replays serially.
func (b *Backend) SwapInBatch(now dram.Ps, pages []sfm.PageIn, offload bool) []error {
	hBatchPages.Observe(float64(len(pages)))
	errs := b.inner.SwapInBatch(now, pages, offload)
	sc := &b.batch
	sc.reset(len(pages))
	verify := false
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		par, ok := b.parity[p.ID]
		if !ok {
			continue
		}
		if !b.eccEnabled {
			// Swapped in unverified: an entry must not outlive the
			// page image it describes.
			b.dropParity(p.ID)
			continue
		}
		if b.inj != nil {
			// Draw and apply the scheduled bit flips here, serially and
			// in input order, not in the verification fan-out: the
			// draws are keyed by page ID but budget accounting is
			// call-ordered, and determinism of budgeted plans must not
			// depend on worker scheduling.
			b.injectECC(p.ID, p.Dst)
		}
		sc.pars[i] = par
		verify = true
	}
	if verify {
		sc.ins = pages
		b.pool.Run(len(pages), b.workers, sc.verifyFn)
		sc.ins = nil
	}
	b.driver.AdvanceTo(now)
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		if sc.pars[i] != nil {
			v := sc.vs[i]
			b.recordECC(v.corrected, v.bad)
			b.dropParity(p.ID)
			if v.bad > 0 {
				if err := b.quarantinePage(p.ID, v.bad, p.Dst); err != nil {
					errs[i] = err
					continue
				}
			}
		}
		delete(b.staging, p.ID)
		if !offload {
			b.recordFallback(nma.DecompressOp)
			continue
		}
		b.nextReq++
		req := nma.Request{
			ID:       b.nextReq,
			Kind:     nma.DecompressOp,
			SrcGroup: b.pageGroup(b.regionAddr(p.ID)),
			DstGroup: b.pageGroup(b.localAddr(p.ID)),
			Arrive:   now,
		}
		b.submitOrFallback(req, nma.DecompressOp)
	}
	return errs
}

// SwapOutBatch implements sfm.Backend: the multi-channel
// split-and-compress of every page runs in parallel (it touches no
// shared state), then slots are placed and offloads submitted in input
// order.
func (g *GroupBackend) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	errs := make([]error, len(pages))
	cls := make([]CompressedLayout, len(pages))
	g.pool.Run(len(pages), g.workers, func(_, i int) {
		data := pages[i].Data
		if len(data) != sfm.PageSize {
			errs[i] = fmt.Errorf("xfm: page %d has %d bytes, want %d", pages[i].ID, len(data), sfm.PageSize)
			return
		}
		cls[i] = g.layout.CompressPage(data, g.newCodec)
	})
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		errs[i] = g.placeCompressed(now, p.ID, cls[i])
	}
	return errs
}

// SwapInBatch implements sfm.Backend: per-DIMM decompression and
// gathering run in parallel (the slot map sees only reads), then slot
// removal and offload submission replay in input order. A page that
// appears twice in one batch decompresses twice but only the first
// occurrence succeeds, matching a serial loop.
func (g *GroupBackend) SwapInBatch(now dram.Ps, pages []sfm.PageIn, offload bool) []error {
	errs := make([]error, len(pages))
	cls := make([]CompressedLayout, len(pages))
	done := make([]bool, len(pages))
	g.pool.Run(len(pages), g.workers, func(_, i int) {
		p := pages[i]
		if len(p.Dst) != sfm.PageSize {
			errs[i] = fmt.Errorf("xfm: dst has %d bytes, want %d", len(p.Dst), sfm.PageSize)
			return
		}
		cl, ok := g.slots[p.ID]
		if !ok {
			errs[i] = sfm.ErrNotFound
			return
		}
		if _, err := g.layout.DecompressPageInto(p.Dst[:0], cl, g.newCodec, sfm.PageSize); err != nil {
			errs[i] = err
			return
		}
		cls[i] = cl
		done[i] = true
	})
	for i, p := range pages {
		if !done[i] {
			continue
		}
		if _, ok := g.slots[p.ID]; !ok {
			// An earlier batch element already swapped this id in.
			errs[i] = sfm.ErrNotFound
			continue
		}
		g.finishSwapIn(now, p.ID, cls[i], offload)
	}
	return errs
}
