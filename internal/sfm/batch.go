package sfm

import "xfm/internal/dram"

// Batched swap APIs (§5–§6 of the paper): XFM's whole throughput story
// is that swap traffic is accumulated and executed in batches per
// refresh interval rather than as per-page round trips. PageOut and
// PageIn are the batch elements; every Backend implements
// SwapOutBatch/SwapInBatch, and backends with internal sharding
// (ShardedBackend, the xfm backends) run a batch's (de)compression in
// parallel across a worker pool.

// PageOut is one element of a batched swap-out: the page id and its
// uncompressed bytes (len PageSize). The backend does not retain Data
// past the call.
type PageOut struct {
	ID   PageID
	Data []byte
}

// PageIn is one element of a batched swap-in: the page id and the
// destination buffer (len PageSize) the backend decompresses into.
type PageIn struct {
	ID  PageID
	Dst []byte
}

// FirstError returns the first non-nil error in errs, or nil.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SwapOutBatch implements Backend: the CPU backend executes the batch
// serially — it owns one scratch buffer and one zsmalloc region, so
// the batch is a loop. ShardedBackend supplies the parallel version.
func (b *CPUBackend) SwapOutBatch(now dram.Ps, pages []PageOut) []error {
	errs := make([]error, len(pages))
	for i, p := range pages {
		errs[i] = b.SwapOut(now, p.ID, p.Data)
	}
	return errs
}

// SwapInBatch implements Backend.
func (b *CPUBackend) SwapInBatch(now dram.Ps, pages []PageIn, offload bool) []error {
	errs := make([]error, len(pages))
	for i, p := range pages {
		errs[i] = b.SwapIn(now, p.ID, p.Dst, offload)
	}
	return errs
}
