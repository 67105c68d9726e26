package xfm

import (
	"xfm/internal/dram"
	"xfm/internal/sfm"
)

// Batched swap paths. A batch splits into a parallel phase (pure
// per-page work: (de)compression, ECC parity math) and a serial phase
// (driver submissions, parity-map and slot bookkeeping) executed in
// input order. For Backend that split lives in offloadOut/offloadIn,
// which the single-page calls run too; for GroupBackend the parallel
// phase fans out the same compressPage/decompressPage the single-page
// calls run inline.

// SwapOutBatch implements sfm.Backend: the inner store compresses the
// batch (in parallel when the inner store is sharded), ECC parity is
// computed on every core, and the offload submissions replay serially.
func (b *Backend) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	hBatchPages.Observe(float64(len(pages)))
	errs := b.inner.SwapOutBatch(now, pages)
	b.offloadOut(now, pages, errs)
	return errs
}

// SwapInBatch implements sfm.Backend: the inner store decompresses the
// batch, parity verification fans out over buffers looked up serially
// beforehand (workers never touch the parity map), and driver
// accounting replays serially.
func (b *Backend) SwapInBatch(now dram.Ps, pages []sfm.PageIn, offload bool) []error {
	hBatchPages.Observe(float64(len(pages)))
	errs := b.inner.SwapInBatch(now, pages, offload)
	b.offloadIn(now, pages, errs, offload)
	return errs
}

// SwapOutBatch implements sfm.Backend: the multi-channel
// split-and-compress of every page runs in parallel (it touches no
// shared state), then slots are placed and offloads submitted in input
// order.
func (g *GroupBackend) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	errs := make([]error, len(pages))
	cls := make([]CompressedLayout, len(pages))
	g.pool.Run(len(pages), 0, func(_, i int) {
		cls[i], errs[i] = g.compressPage(pages[i])
	})
	for i, p := range pages {
		if errs[i] == nil {
			errs[i] = g.placeCompressed(now, p.ID, cls[i])
		}
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
	g.pool.Run(len(pages), 0, func(_, i int) {
		cls[i], errs[i] = g.decompressPage(pages[i])
	})
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		if !g.Contains(p.ID) {
			// An earlier batch element already swapped this id in.
			errs[i] = sfm.ErrNotFound
			continue
		}
		g.finishSwapIn(now, p.ID, cls[i], offload)
	}
	return errs
}
