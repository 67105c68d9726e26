// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with group_test.go, TestGroupBatch* (batch_test.go) and the xfm.GroupBackend row of TestDifferentialSingleVsBatch.

package xfm

import (
	"fmt"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/parallel"
	"xfm/internal/sfm"
)

// GroupBackend is XFM operating in multi-channel mode (§6, Fig. 9): a
// logically contiguous page is physically interleaved across several
// XFM DIMMs; each DIMM's NMA compresses only the chunks it holds
// (with a correspondingly smaller window), and every DIMM places its
// piece at the *same offset* within its SFM region, so the host
// addresses a compressed page with a single offset. The price is
// internal fragmentation: each DIMM reserves the size of the largest
// piece.
type GroupBackend struct {
	layout  MultiChannelLayout
	drivers []*Driver
	mapp    memctrl.Mapping

	newCodec func(window int) compress.Codec
	codec    compress.Codec // window-limited instance used per part

	// Same-offset slot store: id → per-DIMM compressed parts.
	slots map[sfm.PageID]CompressedLayout
	// perDIMMRegion limits each DIMM's reserved bytes.
	perDIMMRegion int64
	reservedBytes int64 // per DIMM (identical across DIMMs by design)

	nextReq   int64
	offloads  int64
	fallbacks int64
	cpuCycles float64
	pool      *parallel.Pool // persistent batch fan-out workers

	stats groupStats
}

// Close releases the backend's worker pool goroutines. Optional: idle
// workers only park on a channel.
func (g *GroupBackend) Close() { g.pool.Close() }

type groupStats struct {
	swapOuts, swapIns int64
	storedBytes       int64 // actual compressed payload across DIMMs
	fragBytes         int64 // same-offset fragmentation across DIMMs
	storedPages       int64
}

// NewGroupBackend builds a multi-channel backend over the given
// drivers (one per DIMM). newCodec builds a window-limited codec for
// the per-DIMM share of the page. perDIMMRegion limits each DIMM's
// SFM region.
func NewGroupBackend(newCodec func(window int) compress.Codec, perDIMMRegion int64,
	drivers []*Driver, m memctrl.Mapping) (*GroupBackend, error) {
	if len(drivers) == 0 {
		return nil, fmt.Errorf("xfm: group needs at least one driver")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	layout := DefaultLayout(len(drivers))
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	for _, d := range drivers {
		if err := d.Paramset(0, perDIMMRegion); err != nil {
			return nil, err
		}
	}
	return &GroupBackend{
		layout:        layout,
		drivers:       drivers,
		mapp:          m,
		newCodec:      newCodec,
		codec:         newCodec(layout.WindowBytes(sfm.PageSize)),
		slots:         map[sfm.PageID]CompressedLayout{},
		perDIMMRegion: perDIMMRegion,
		pool:          parallel.NewPool(0),
	}, nil
}

// DIMMs returns the number of memory modules in the group.
func (g *GroupBackend) DIMMs() int { return g.layout.DIMMs }

// localGroup and regionGroup are the refresh groups of page id's local
// rows and of its same-offset SFM region slot.
func (g *GroupBackend) localGroup(id sfm.PageID) int {
	return pageGroup(g.mapp, int64(id)*sfm.PageSize)
}

func (g *GroupBackend) regionGroup(id sfm.PageID) int {
	return pageGroup(g.mapp, g.perDIMMRegion+(int64(id)*sfm.PageSize)%g.perDIMMRegion)
}

// compressPage is the pure per-page half of swap-out: the page is split
// at the channel interleave granularity and each DIMM's share is
// compressed with the reduced window. SwapOut runs it inline,
// SwapOutBatch on the pool.
func (g *GroupBackend) compressPage(p sfm.PageOut) (CompressedLayout, error) {
	if len(p.Data) != sfm.PageSize {
		return CompressedLayout{}, fmt.Errorf("xfm: page %d has %d bytes, want %d", p.ID, len(p.Data), sfm.PageSize)
	}
	return g.layout.CompressPage(p.Data, g.newCodec), nil
}

// SwapOut implements sfm.Backend: every DIMM places its compressed
// share of the page at the same offset.
func (g *GroupBackend) SwapOut(now dram.Ps, id sfm.PageID, data []byte) error {
	cl, err := g.compressPage(sfm.PageOut{ID: id, Data: data})
	if err != nil {
		return err
	}
	return g.placeCompressed(now, id, cl)
}

// placeCompressed stores an already-compressed page and submits the
// per-DIMM offload requests (each NMA reads its own chunks of the cold
// page during its refresh windows) — the serial bookkeeping half of
// swap-out.
func (g *GroupBackend) placeCompressed(now dram.Ps, id sfm.PageID, cl CompressedLayout) error {
	if g.Contains(id) {
		return sfm.ErrExists
	}
	if g.reservedBytes+int64(cl.SlotBytes) > g.perDIMMRegion {
		return sfm.ErrFull
	}
	g.slots[id] = cl
	g.reservedBytes += int64(cl.SlotBytes)
	g.stats.swapOuts++
	g.stats.storedPages++
	g.stats.storedBytes += int64(cl.TotalStored())
	g.stats.fragBytes += int64(cl.FragmentationBytes())
	g.submitOrFallback(now, nma.CompressOp, g.localGroup(id), g.regionGroup(id), true)
	return nil
}

// decompressPage is the pure per-page half of swap-in: parts are
// fetched from every DIMM, decompressed, and gathered straight into
// p.Dst in host-logical order (the specialized CPU fallback "handles
// both decompression and gathering operations without additional
// memory copies", §6). It only reads the slot map. SwapIn runs it
// inline, SwapInBatch on the pool.
func (g *GroupBackend) decompressPage(p sfm.PageIn) (CompressedLayout, error) {
	if len(p.Dst) != sfm.PageSize {
		return CompressedLayout{}, fmt.Errorf("xfm: dst has %d bytes, want %d", len(p.Dst), sfm.PageSize)
	}
	cl, ok := g.slots[p.ID]
	if !ok {
		return cl, sfm.ErrNotFound
	}
	_, err := g.layout.DecompressPageInto(p.Dst[:0], cl, g.newCodec, sfm.PageSize)
	return cl, err
}

// SwapIn implements sfm.Backend.
func (g *GroupBackend) SwapIn(now dram.Ps, id sfm.PageID, dst []byte, offload bool) error {
	cl, err := g.decompressPage(sfm.PageIn{ID: id, Dst: dst})
	if err != nil {
		return err
	}
	g.finishSwapIn(now, id, cl, offload)
	return nil
}

// finishSwapIn removes a decompressed page's slot and submits the
// per-DIMM offload requests — the serial bookkeeping half of swap-in.
func (g *GroupBackend) finishSwapIn(now dram.Ps, id sfm.PageID, cl CompressedLayout, offload bool) {
	delete(g.slots, id)
	g.reservedBytes -= int64(cl.SlotBytes)
	g.stats.swapIns++
	g.stats.storedPages--
	g.stats.storedBytes -= int64(cl.TotalStored())
	g.stats.fragBytes -= int64(cl.FragmentationBytes())
	g.submitOrFallback(now, nma.DecompressOp, g.regionGroup(id), g.localGroup(id), offload)
}

// submitOrFallback advances every DIMM to now and, when offload is
// asserted, submits one request per DIMM. Unless every NMA accepted its
// share, CPU_Fallback runs the whole page on the host with the
// scatter-aware function (Fig. 9b).
func (g *GroupBackend) submitOrFallback(now dram.Ps, kind nma.OpKind, srcGroup, dstGroup int, offload bool) {
	allOK := offload
	for _, d := range g.drivers {
		d.AdvanceTo(now)
		if !offload {
			continue
		}
		g.nextReq++
		ok, err := d.Submit(nma.Request{
			ID: g.nextReq, Kind: kind,
			SrcGroup: srcGroup, DstGroup: dstGroup, Arrive: now,
		})
		if err != nil || !ok {
			allOK = false
		}
	}
	if allOK {
		g.offloads++
		return
	}
	g.fallbacks++
	g.cpuCycles += fallbackCycles(g.codec, kind)
}

// Contains implements sfm.Backend.
func (g *GroupBackend) Contains(id sfm.PageID) bool {
	_, ok := g.slots[id]
	return ok
}

// Compact implements sfm.Backend. The same-offset layout compacts by
// re-packing slots; the model reports zero movement because slot
// reservations are already dense in this in-memory representation.
func (g *GroupBackend) Compact() int64 { return 0 }

// Stats implements sfm.Backend.
func (g *GroupBackend) Stats() sfm.BackendStats {
	return sfm.BackendStats{
		SwapOuts:        g.stats.swapOuts,
		SwapIns:         g.stats.swapIns,
		BytesOut:        g.stats.swapOuts * sfm.PageSize,
		BytesIn:         g.stats.swapIns * sfm.PageSize,
		CompressedBytes: g.stats.storedBytes,
		StoredPages:     g.stats.storedPages,
		CPUCycles:       g.cpuCycles,
		Offloads:        g.offloads,
		Fallbacks:       g.fallbacks,
	}
}

// FragmentationBytes returns the current internal fragmentation the
// same-offset placement costs across all DIMMs (§6: "this comes at
// the cost of some internal fragmentation").
func (g *GroupBackend) FragmentationBytes() int64 { return g.stats.fragBytes }

// ReservedBytesPerDIMM returns the per-DIMM region consumption.
func (g *GroupBackend) ReservedBytesPerDIMM() int64 { return g.reservedBytes }

var _ sfm.Backend = (*GroupBackend)(nil)

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
