package zsmalloc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocGetRoundTrip(t *testing.T) {
	a := New(0)
	data := []byte("compressed page payload")
	h, err := a.Alloc(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Get(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	if n, _ := a.Size(h); n != len(data) {
		t.Errorf("Size = %d, want %d", n, len(data))
	}
}

func TestAllocErrors(t *testing.T) {
	a := New(0)
	if _, err := a.Alloc(make([]byte, PageSize+1)); err != ErrTooLarge {
		t.Errorf("oversized alloc: err = %v, want ErrTooLarge", err)
	}
	if _, err := a.Alloc(nil); err == nil {
		t.Error("empty alloc accepted")
	}
	if _, err := a.Get(nil, Handle(999)); err != ErrInvalidHandle {
		t.Errorf("bad handle Get: err = %v", err)
	}
	if err := a.Free(Handle(999)); err != ErrInvalidHandle {
		t.Errorf("bad handle Free: err = %v", err)
	}
	if _, err := a.Size(Handle(999)); err != ErrInvalidHandle {
		t.Errorf("bad handle Size: err = %v", err)
	}
}

func TestFreeReleasesEmptyPages(t *testing.T) {
	a := New(0)
	var hs []Handle
	for i := 0; i < 10; i++ {
		h, err := a.Alloc(make([]byte, 2048))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	// 2048-byte class: 2 slots per page, so 5 pages.
	if got := a.Stats().PageBytes; got != 5*PageSize {
		t.Fatalf("PageBytes = %d, want %d", got, 5*PageSize)
	}
	for _, h := range hs {
		if err := a.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().PageBytes; got != 0 {
		t.Errorf("PageBytes after freeing all = %d, want 0", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDoubleFree(t *testing.T) {
	a := New(0)
	h, _ := a.Alloc([]byte("x"))
	if err := a.Free(h); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(h); err != ErrInvalidHandle {
		t.Errorf("double free: err = %v, want ErrInvalidHandle", err)
	}
}

func TestCapacityLimit(t *testing.T) {
	a := New(2 * PageSize) // room for 2 encapsulating pages
	// 4096-byte objects: one per page.
	if _, err := a.Alloc(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(make([]byte, 4096)); err != ErrCapacity {
		t.Errorf("over-capacity alloc: err = %v, want ErrCapacity", err)
	}
	// Small objects can still share existing pages only if a class
	// page exists — here none, so they must also fail.
	if _, err := a.Alloc(make([]byte, 64)); err != ErrCapacity {
		t.Errorf("new class page over capacity: err = %v, want ErrCapacity", err)
	}
}

func TestPackingMultipleObjectsPerPage(t *testing.T) {
	a := New(0)
	// 64 × 64-byte objects fit in exactly one page.
	for i := 0; i < 64; i++ {
		if _, err := a.Alloc(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().PageBytes; got != PageSize {
		t.Errorf("64 small objects used %d page bytes, want one page", got)
	}
	if u := a.Stats().Utilization(); u != 1.0 {
		t.Errorf("utilization = %v, want 1.0", u)
	}
}

func TestCompactionReclaimsFragmentation(t *testing.T) {
	a := New(0)
	var hs []Handle
	// Fill 8 pages of the 1024-byte class (4 slots each).
	for i := 0; i < 32; i++ {
		h, err := a.Alloc(make([]byte, 1000))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	// Free 3 of every 4 objects: pages become sparse but none empty.
	for i, h := range hs {
		if i%4 != 0 {
			a.Free(h)
		}
	}
	before := a.Stats().PageBytes
	if before != 8*PageSize {
		t.Fatalf("pages before compaction = %d bytes, want 8 pages", before)
	}
	moved := a.Compact()
	if moved <= 0 {
		t.Fatal("compaction moved nothing")
	}
	after := a.Stats().PageBytes
	// 8 surviving objects of 1000 B fit in 2 pages.
	if after != 2*PageSize {
		t.Errorf("pages after compaction = %d bytes, want 2 pages", after)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Surviving objects still readable.
	for i, h := range hs {
		if i%4 == 0 {
			if _, err := a.Get(nil, h); err != nil {
				t.Errorf("object %d unreadable after compaction: %v", i, err)
			}
		}
	}
}

func TestCompactionPreservesContent(t *testing.T) {
	a := New(0)
	rng := rand.New(rand.NewSource(4))
	contents := map[Handle][]byte{}
	var order []Handle
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(3000)+1)
		rng.Read(data)
		h, err := a.Alloc(data)
		if err != nil {
			t.Fatal(err)
		}
		contents[h] = data
		order = append(order, h)
	}
	for i, h := range order {
		if i%3 == 0 {
			a.Free(h)
			delete(contents, h)
		}
	}
	a.Compact()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for h, want := range contents {
		got, err := a.Get(nil, h)
		if err != nil {
			t.Fatalf("Get(%d): %v", h, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("content of %d corrupted by compaction", h)
		}
	}
}

// TestPropertyRandomOps runs random alloc/free/get/compact sequences
// and checks invariants plus content fidelity throughout.
func TestPropertyRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(256 * PageSize)
		contents := map[Handle][]byte{}
		var hs []Handle
		for op := 0; op < 800; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // alloc
				data := make([]byte, rng.Intn(4096)+1)
				rng.Read(data)
				h, err := a.Alloc(data)
				if err == ErrCapacity {
					continue
				}
				if err != nil {
					return false
				}
				contents[h] = data
				hs = append(hs, h)
			case 5, 6, 7: // free
				if len(hs) == 0 {
					continue
				}
				i := rng.Intn(len(hs))
				h := hs[i]
				hs = append(hs[:i], hs[i+1:]...)
				if _, live := contents[h]; live {
					if err := a.Free(h); err != nil {
						return false
					}
					delete(contents, h)
				}
			case 8: // get
				if len(hs) == 0 {
					continue
				}
				h := hs[rng.Intn(len(hs))]
				want, live := contents[h]
				got, err := a.Get(nil, h)
				if live != (err == nil) {
					return false
				}
				if live && !bytes.Equal(got, want) {
					return false
				}
			case 9: // compact
				a.Compact()
			}
		}
		if a.CheckInvariants() != nil {
			return false
		}
		for h, want := range contents {
			got, err := a.Get(nil, h)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	a := New(0)
	h1, _ := a.Alloc(make([]byte, 100))
	h2, _ := a.Alloc(make([]byte, 200))
	st := a.Stats()
	if st.Objects != 2 || st.StoredBytes != 300 || st.Allocs != 2 {
		t.Errorf("stats = %+v", st)
	}
	a.Free(h1)
	a.Free(h2)
	st = a.Stats()
	if st.Objects != 0 || st.StoredBytes != 0 || st.Frees != 2 {
		t.Errorf("stats after frees = %+v", st)
	}
}

func TestUtilizationZeroWhenEmpty(t *testing.T) {
	if u := (Stats{}).Utilization(); u != 0 {
		t.Errorf("empty utilization = %v", u)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(0)
	data := make([]byte, 1800)
	for i := 0; i < b.N; i++ {
		h, err := a.Alloc(data)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			a.Free(h)
		}
	}
}

func BenchmarkCompact(b *testing.B) {
	// Build one fragmented arena per iteration batch; per-iteration
	// setup via StopTimer is prohibitively slow at large b.N.
	build := func() *Allocator {
		a := New(0)
		rng := rand.New(rand.NewSource(1))
		var hs []Handle
		for j := 0; j < 400; j++ {
			h, _ := a.Alloc(make([]byte, rng.Intn(2000)+1))
			hs = append(hs, h)
		}
		for j, h := range hs {
			if j%2 == 0 {
				a.Free(h)
			}
		}
		return a
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := build() // included in timing: compaction cost dominates
		a.Compact()
	}
}

// Size returns the stored size of the object.
func (a *Allocator) Size(h Handle) (int, error) {
	s := a.lookup(h)
	if s == nil {
		return 0, ErrInvalidHandle
	}
	return s.length, nil
}

// CheckInvariants verifies internal consistency; tests call it after
// mutation storms. It returns an error describing the first violation.
func (a *Allocator) CheckInvariants() error {
	objects := 0
	var stored, held int64
	for _, c := range a.classes {
		// Free-list consistency: every page with free slots is listed
		// exactly once, full pages are not.
		listed := map[*zpage]int{}
		for _, p := range c.freePages {
			listed[p]++
		}
		for _, p := range c.pages {
			switch {
			case p.free > 0 && (listed[p] != 1 || !p.inFree):
				return fmt.Errorf("class %d: page with %d free slots not on free list", c.size, p.free)
			case p.free == 0 && (listed[p] != 0 || p.inFree):
				return fmt.Errorf("class %d: full page on free list", c.size)
			}
		}
		// Spare pages must be clean (empty, detached, reusable as-is).
		for _, p := range c.spare {
			if p.free != c.slots || p.inFree {
				return fmt.Errorf("class %d: spare page not clean", c.size)
			}
			for _, h := range p.handles {
				if h != 0 {
					return fmt.Errorf("class %d: spare page holds handle %d", c.size, h)
				}
			}
		}
		for _, p := range c.pages {
			if p.free == c.slots {
				return fmt.Errorf("class %d holds an empty page", c.size)
			}
			used := 0
			for i, h := range p.handles {
				if h == 0 {
					continue
				}
				used++
				s := a.lookup(h)
				if s == nil {
					return fmt.Errorf("page slot holds unknown handle %d", h)
				}
				if s.page != p || s.index != i {
					return fmt.Errorf("handle %d back-pointer mismatch", h)
				}
				if s.length > c.size {
					return fmt.Errorf("handle %d length %d exceeds class %d", h, s.length, c.size)
				}
			}
			if used != c.slots-p.free {
				return fmt.Errorf("class %d page free count %d inconsistent with %d used slots",
					c.size, p.free, used)
			}
			objects += used
		}
		held += int64(len(c.pages))
	}
	if held*PageSize != a.stats.PageBytes {
		return fmt.Errorf("classes hold %d pages, stats.PageBytes %d", held, a.stats.PageBytes)
	}
	live := 0
	for i := range a.slots {
		s := &a.slots[i]
		if s.gen == 0 {
			return fmt.Errorf("slot %d has generation 0", i)
		}
		if s.page == nil {
			continue
		}
		live++
		if h := Handle(uint64(s.gen)<<32 | uint64(i)); s.page.handles[s.index] != h {
			return fmt.Errorf("object %d not present at its slot", h)
		}
		stored += int64(s.length)
	}
	onFree := map[uint32]bool{}
	for _, i := range a.free {
		if int(i) >= len(a.slots) || a.slots[i].page != nil || onFree[i] {
			return fmt.Errorf("free list entry %d is out of range, live or listed twice", i)
		}
		onFree[i] = true
	}
	if objects != live || live+len(a.free) != len(a.slots) {
		return fmt.Errorf("page slots hold %d objects, the table %d live and %d free of %d",
			objects, live, len(a.free), len(a.slots))
	}
	if objects != a.stats.Objects {
		return fmt.Errorf("stats.Objects %d, want %d", a.stats.Objects, objects)
	}
	if stored != a.stats.StoredBytes {
		return fmt.Errorf("stats.StoredBytes %d, want %d", a.stats.StoredBytes, stored)
	}
	return nil
}
