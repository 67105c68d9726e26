// Package zsmalloc implements a size-class slab allocator for
// compressed pages, modeled on the Linux zsmalloc allocator that
// production SFMs use (§2.1 of the paper): it packs as many compressed
// objects as possible into 4 KiB encapsulating pages, at the cost of
// intermittent compaction to resolve the internal fragmentation left
// by pages promoted out of the SFM (§6, "SFM Compaction").
package zsmalloc

import (
	"errors"
	"sort"
)

// PageSize is the encapsulating page size.
const PageSize = 4096

// classGranularity is the spacing between size classes in bytes.
const classGranularity = 64

// Handle identifies a stored object: a generation in the high 32 bits
// over an index into the allocator's slot table in the low 32. Handles
// are stable across compaction. Free bumps the slot's generation, so a
// freed handle stays invalid after its index is reused; generations
// start at 1, so 0 and small integers are never valid.
type Handle int64

// Errors returned by the allocator.
var (
	ErrTooLarge      = errors.New("zsmalloc: object larger than a page")
	ErrInvalidHandle = errors.New("zsmalloc: invalid handle")
	ErrCapacity      = errors.New("zsmalloc: region capacity exhausted")
)

// Stats summarizes allocator state.
type Stats struct {
	Objects        int
	StoredBytes    int64 // sum of object sizes
	PageBytes      int64 // bytes of encapsulating pages held
	Allocs, Frees  int64
	Compactions    int64
	CompactedBytes int64 // bytes memcpy'd by compaction
}

// Utilization returns StoredBytes / PageBytes, the packing efficiency.
func (s Stats) Utilization() float64 {
	if s.PageBytes == 0 {
		return 0
	}
	return float64(s.StoredBytes) / float64(s.PageBytes)
}

// slot is one entry of the handle table. A free entry has a nil page.
type slot struct {
	page   *zpage
	index  int
	length int
	gen    uint32
	// pinned marks the object as an active migration exclusion:
	// compaction will not move it, so bytes returned by Pin stay valid
	// until Unpin or Free. Set only via Pin/Unpin.
	pinned bool
}

type zpage struct {
	class   *sizeClass
	data    []byte
	handles []Handle // handle occupying each object slot; 0 = free
	free    int
	inFree  bool // member of the class's free-page list
	freeIdx int  // index within the class's free-page list
}

func (p *zpage) slotBytes(i, length int) []byte {
	off := i * p.class.size
	return p.data[off : off+length]
}

type sizeClass struct {
	size  int
	slots int // objects per encapsulating page
	pages []*zpage
	// freePages lists pages with at least one free slot, so Alloc
	// finds a slot in O(1) instead of scanning the class.
	freePages []*zpage
	// spare caches emptied encapsulating pages for reuse instead of
	// returning them to the Go heap, so a free-then-alloc batch cycle
	// (swap-in batch followed by swap-out batch) allocates no new
	// pages in steady state. Spare pages are not "held": they count
	// toward neither Stats.PageBytes nor the region capacity, and the
	// list is bounded by the class's high-water page count.
	spare []*zpage
}

// noteFree ensures p is on the free-page list.
func (c *sizeClass) noteFree(p *zpage) {
	if !p.inFree && p.free > 0 {
		p.inFree = true
		p.freeIdx = len(c.freePages)
		c.freePages = append(c.freePages, p)
	}
}

// dropFree removes p from the free-page list in O(1) (swap-remove).
func (c *sizeClass) dropFree(p *zpage) {
	if !p.inFree {
		return
	}
	p.inFree = false
	last := len(c.freePages) - 1
	moved := c.freePages[last]
	c.freePages[p.freeIdx] = moved
	moved.freeIdx = p.freeIdx
	c.freePages = c.freePages[:last]
}

// Allocator packs variable-size compressed objects into fixed-size
// encapsulating pages. The zero value is not usable; call New.
type Allocator struct {
	maxPages int64 // capacity limit in encapsulating pages; 0 = unlimited
	classes  []*sizeClass
	// slots is the handle table, indexed by a handle's low 32 bits.
	// free lists the indices of its free entries, so the steady-state
	// alloc/free cycle of a batch swap round trip does not touch the
	// Go heap; both are bounded by the high-water object count.
	slots []slot
	free  []uint32
	stats Stats
}

// New returns an allocator limited to maxBytes of encapsulating pages
// (rounded down to whole pages); maxBytes ≤ 0 means unlimited. This
// limit is the SFM region capacity.
func New(maxBytes int64) *Allocator {
	a := &Allocator{}
	if maxBytes > 0 {
		a.maxPages = maxBytes / PageSize
	}
	for size := classGranularity; size <= PageSize; size += classGranularity {
		a.classes = append(a.classes, &sizeClass{size: size, slots: PageSize / size})
	}
	return a
}

// classFor returns the smallest size class that fits n bytes.
func (a *Allocator) classFor(n int) *sizeClass {
	idx := (n + classGranularity - 1) / classGranularity
	if idx == 0 {
		idx = 1
	}
	return a.classes[idx-1]
}

// lookup returns the live slot h names, or nil.
func (a *Allocator) lookup(h Handle) *slot {
	i, gen := uint32(h), uint32(uint64(h)>>32)
	if int(i) >= len(a.slots) || a.slots[i].gen != gen || a.slots[i].page == nil {
		return nil
	}
	return &a.slots[i]
}

// Alloc stores a copy of data and returns its handle. It fails with
// ErrCapacity when a new encapsulating page would exceed the region
// limit and no free slot exists, and with ErrTooLarge for objects over
// PageSize.
func (a *Allocator) Alloc(data []byte) (Handle, error) {
	if len(data) > PageSize {
		return 0, ErrTooLarge
	}
	if len(data) == 0 {
		return 0, errors.New("zsmalloc: empty object")
	}
	c := a.classFor(len(data))
	// Take any page with a free slot from the class's free list.
	var page *zpage
	if n := len(c.freePages); n > 0 {
		page = c.freePages[n-1]
	}
	if page == nil {
		if a.maxPages > 0 && a.stats.PageBytes/PageSize >= a.maxPages {
			return 0, ErrCapacity
		}
		if n := len(c.spare); n > 0 {
			page = c.spare[n-1]
			c.spare[n-1] = nil
			c.spare = c.spare[:n-1]
		} else {
			page = &zpage{
				class:   c,
				data:    make([]byte, PageSize),
				handles: make([]Handle, c.slots),
				free:    c.slots,
			}
		}
		c.pages = append(c.pages, page)
		c.noteFree(page)
		a.stats.PageBytes += PageSize
	}
	idx := -1
	for i, h := range page.handles {
		if h == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("zsmalloc: page with free count but no free slot")
	}
	var i uint32
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		i = uint32(len(a.slots))
		a.slots = append(a.slots, slot{gen: 1})
	}
	s := &a.slots[i]
	s.page, s.index, s.length = page, idx, len(data)
	h := Handle(uint64(s.gen)<<32 | uint64(i))
	copy(page.slotBytes(idx, len(data)), data)
	page.handles[idx] = h
	page.free--
	if page.free == 0 {
		page.class.dropFree(page)
	}
	a.stats.Objects++
	a.stats.StoredBytes += int64(len(data))
	a.stats.Allocs++
	return h, nil
}

// Get appends the object's bytes to dst and returns the extended
// slice.
func (a *Allocator) Get(dst []byte, h Handle) ([]byte, error) {
	s := a.lookup(h)
	if s == nil {
		return dst, ErrInvalidHandle
	}
	return append(dst, s.page.slotBytes(s.index, s.length)...), nil
}

// Free releases the object's slot (pinned or not; freeing an object
// ends its pin). Empty encapsulating pages are cached for reuse.
func (a *Allocator) Free(h Handle) error {
	s := a.lookup(h)
	if s == nil {
		return ErrInvalidHandle
	}
	page := s.page
	page.handles[s.index] = 0
	page.free++
	page.class.noteFree(page)
	a.stats.Objects--
	a.stats.StoredBytes -= int64(s.length)
	a.stats.Frees++
	*s = slot{gen: max(s.gen+1, 1)} // a wrapped generation skips 0
	a.free = append(a.free, uint32(h))
	if page.free == page.class.slots {
		a.releasePage(page)
	}
	return nil
}

// Pin returns the object's live slot bytes and excludes it from
// compaction migration until Unpin or Free, so a caller may read the
// bytes without holding the allocator's external lock for the whole
// read. The slice aliases the encapsulating page: it is valid only
// while the pin holds and must be treated as read-only.
func (a *Allocator) Pin(h Handle) ([]byte, error) {
	s := a.lookup(h)
	if s == nil {
		return nil, ErrInvalidHandle
	}
	s.pinned = true
	return s.page.slotBytes(s.index, s.length), nil
}

// Unpin makes the object movable by compaction again. Bytes returned
// by Pin must not be used afterwards.
func (a *Allocator) Unpin(h Handle) error {
	s := a.lookup(h)
	if s == nil {
		return ErrInvalidHandle
	}
	s.pinned = false
	return nil
}

func (a *Allocator) releasePage(p *zpage) {
	c := p.class
	c.dropFree(p)
	for i, q := range c.pages {
		if q == p {
			c.pages = append(c.pages[:i], c.pages[i+1:]...)
			a.stats.PageBytes -= PageSize
			// p is empty (all handles zero, free == slots), so it can
			// be handed straight back to Alloc later.
			c.spare = append(c.spare, p)
			return
		}
	}
}

// Compact defragments every size class by migrating objects out of
// sparsely used pages into denser ones, releasing emptied pages. It
// returns the number of bytes moved (the memcpy cost the paper's
// xfm_compact() interface exposes, §6).
func (a *Allocator) Compact() int64 {
	var moved int64
	for _, c := range a.classes {
		moved += a.compactClass(c)
	}
	a.stats.Compactions++
	a.stats.CompactedBytes += moved
	return moved
}

func (a *Allocator) compactClass(c *sizeClass) int64 {
	if len(c.pages) < 2 {
		return 0
	}
	// Densest pages first as migration targets; sparsest last as
	// sources.
	sort.Slice(c.pages, func(i, j int) bool { return c.pages[i].free < c.pages[j].free })
	var moved int64
	lo, hi := 0, len(c.pages)-1
	for lo < hi {
		dst, src := c.pages[lo], c.pages[hi]
		if dst.free == 0 {
			lo++
			continue
		}
		if src.free == c.slots {
			hi--
			continue
		}
		// Move one object from src to dst. Pinned objects are not
		// migration sources: a batch swap-in may be decompressing
		// their bytes in place without the allocator's external lock.
		srcIdx := -1
		for i := len(src.handles) - 1; i >= 0; i-- {
			if h := src.handles[i]; h != 0 && !a.slots[uint32(h)].pinned {
				srcIdx = i
				break
			}
		}
		if srcIdx < 0 {
			// Everything left on this source page is pinned; skip it.
			hi--
			continue
		}
		dstIdx := -1
		for i, h := range dst.handles {
			if h == 0 {
				dstIdx = i
				break
			}
		}
		if dstIdx < 0 {
			break
		}
		h := src.handles[srcIdx]
		s := &a.slots[uint32(h)]
		copy(dst.slotBytes(dstIdx, s.length), src.slotBytes(srcIdx, s.length))
		moved += int64(s.length)
		dst.handles[dstIdx] = h
		dst.free--
		src.handles[srcIdx] = 0
		src.free++
		s.page, s.index = dst, dstIdx
	}
	// Release pages emptied by migration, then rebuild the free list
	// (migration changed many occupancies).
	var emptied []*zpage
	for _, p := range c.pages {
		if p.free == c.slots {
			emptied = append(emptied, p)
		}
	}
	for _, p := range emptied {
		a.releasePage(p)
	}
	c.freePages = c.freePages[:0]
	for _, p := range c.pages {
		p.inFree = false
		c.noteFree(p)
	}
	return moved
}

// Stats returns a snapshot of allocator statistics.
func (a *Allocator) Stats() Stats { return a.stats }
