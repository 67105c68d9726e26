package sfm

import (
	"fmt"

	"xfm/internal/dram"
)

// Heap is an application-integrated far-memory heap in the style of
// AIFM (§7): the application allocates page-granular objects, touches
// them over time, and the SFM controller moves cold pages between
// local memory and the compressed far-memory region.
type Heap struct {
	backend Backend
	pages   map[PageID]*pageInfo
	next    PageID

	stats HeapStats
}

type pageInfo struct {
	data       []byte // nil while swapped out
	lastAccess dram.Ps
}

// HeapStats counts heap-level swap activity.
type HeapStats struct {
	Allocated       int64
	ResidentPages   int64
	FarPages        int64
	DemandFaults    int64 // accesses that hit a swapped-out page
	PrefetchedPages int64 // preemptive promotions
	SwapOutFailures int64 // region-full or incompressible rejections
}

// NewHeap builds a heap over the given backend.
func NewHeap(b Backend) *Heap {
	return &Heap{backend: b, pages: map[PageID]*pageInfo{}, next: 1}
}

// Stats returns heap counters.
func (h *Heap) Stats() HeapStats { return h.stats }

// Alloc creates a new resident page initialized with data (padded or
// truncated to PageSize) and returns its id.
func (h *Heap) Alloc(now dram.Ps, data []byte) PageID {
	page := make([]byte, PageSize)
	copy(page, data)
	id := h.next
	h.next++
	h.pages[id] = &pageInfo{data: page, lastAccess: now}
	h.stats.Allocated++
	h.stats.ResidentPages++
	return id
}

// Touch accesses a page: it returns the page bytes, swapping the page
// in first if it is in far memory (a demand fault, served by the CPU
// path). The returned slice aliases the heap's copy.
func (h *Heap) Touch(now dram.Ps, id PageID) ([]byte, error) {
	p, ok := h.pages[id]
	if !ok {
		return nil, fmt.Errorf("sfm: unknown page %d", id)
	}
	if p.data == nil {
		dst := make([]byte, PageSize)
		if err := h.backend.SwapIn(now, id, dst, false); err != nil {
			return nil, err
		}
		p.data = dst
		h.stats.DemandFaults++
		h.stats.ResidentPages++
		h.stats.FarPages--
	}
	p.lastAccess = now
	return p.data, nil
}

// Resident reports whether the page is in local memory.
func (h *Heap) Resident(id PageID) bool {
	p, ok := h.pages[id]
	return ok && p.data != nil
}

// LastAccess returns the page's last access time; ok is false for
// unknown pages.
func (h *Heap) LastAccess(id PageID) (dram.Ps, bool) {
	p, ok := h.pages[id]
	if !ok {
		return 0, false
	}
	return p.lastAccess, true
}

// SwapOut demotes a resident page to far memory. It is a no-op error
// if the page is already swapped out.
func (h *Heap) SwapOut(now dram.Ps, id PageID) error {
	p, ok := h.pages[id]
	if !ok {
		return fmt.Errorf("sfm: unknown page %d", id)
	}
	if p.data == nil {
		return ErrExists
	}
	if err := h.backend.SwapOut(now, id, p.data); err != nil {
		h.stats.SwapOutFailures++
		return err
	}
	p.data = nil
	h.stats.ResidentPages--
	h.stats.FarPages++
	return nil
}

// Prefetch preemptively promotes a far page back to local memory with
// the offload hint set, letting an NMA backend decompress it in
// memory (§6: prefetch-enabled xfm_swap_in).
func (h *Heap) Prefetch(now dram.Ps, id PageID) error {
	p, ok := h.pages[id]
	if !ok {
		return fmt.Errorf("sfm: unknown page %d", id)
	}
	if p.data != nil {
		return nil // already resident
	}
	dst := make([]byte, PageSize)
	if err := h.backend.SwapIn(now, id, dst, true); err != nil {
		return err
	}
	p.data = dst
	h.stats.PrefetchedPages++
	h.stats.ResidentPages++
	h.stats.FarPages--
	return nil
}

// PageIDs returns all page ids (resident and far) in allocation order.
func (h *Heap) PageIDs() []PageID {
	out := make([]PageID, 0, len(h.pages))
	for id := PageID(1); id < h.next; id++ {
		if _, ok := h.pages[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// ColdScanController is the SFM control plane (§6 "the SFM_Controller
// selects a cold page based on an algorithm or set of heuristics"),
// implementing Google-style cold page scanning (§2.1: "Google's
// approach involves pre-emptively scanning for cold pages"): any
// resident page idle for at least ColdAfter is demoted.
type ColdScanController struct {
	Heap      *Heap
	ColdAfter dram.Ps
}

// Run applies the policy at time now and returns how many pages it
// swapped out.
func (c *ColdScanController) Run(now dram.Ps) int {
	n := 0
	for _, id := range c.Heap.PageIDs() {
		if !c.Heap.Resident(id) {
			continue
		}
		last, _ := c.Heap.LastAccess(id)
		if now-last >= c.ColdAfter {
			if c.Heap.SwapOut(now, id) == nil {
				n++
			}
		}
	}
	return n
}
