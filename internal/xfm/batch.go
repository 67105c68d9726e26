package xfm

import (
	"xfm/internal/dram"
	"xfm/internal/sfm"
)

// Batched swap paths. A batch splits into a parallel phase (pure
// per-page work: (de)compression, ECC parity math) and a serial phase
// (driver submissions, parity-map and slot bookkeeping) executed in
// input order. That split lives in offloadOut/offloadIn, which the
// single-page calls run too.

// SwapOutBatch implements sfm.Backend: the inner store compresses the
// batch (in parallel when the inner store is sharded), ECC parity is
// computed on every core, and the offload submissions replay serially.
func (b *Backend) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	errs := b.inner.SwapOutBatch(now, pages)
	b.offloadOut(now, pages, errs)
	return errs
}

// SwapInBatch implements sfm.Backend: the inner store decompresses the
// batch, parity verification fans out over buffers looked up serially
// beforehand (workers never touch the parity map), and driver
// accounting replays serially.
func (b *Backend) SwapInBatch(now dram.Ps, pages []sfm.PageIn, offload bool) []error {
	errs := b.inner.SwapInBatch(now, pages, offload)
	b.offloadIn(now, pages, errs, offload)
	return errs
}
