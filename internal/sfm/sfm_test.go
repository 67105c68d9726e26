package sfm

import (
	"bytes"
	"math/rand"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
)

func newBackend() *CPUBackend {
	return NewCPUBackend(compress.NewLZFast(), 0)
}

func makePage(fill byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestSwapOutInRoundTrip(t *testing.T) {
	b := newBackend()
	page := makePage('A')
	if err := b.SwapOut(0, 1, page); err != nil {
		t.Fatal(err)
	}
	if !b.Contains(1) {
		t.Fatal("page not in far memory after swap out")
	}
	dst := make([]byte, PageSize)
	if err := b.SwapIn(0, 1, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, page) {
		t.Fatal("round trip corrupted page")
	}
	if b.Contains(1) {
		t.Error("page still in far memory after swap in")
	}
}

func TestSwapOutErrors(t *testing.T) {
	b := newBackend()
	if err := b.SwapOut(0, 1, []byte("short")); err == nil {
		t.Error("short page accepted")
	}
	page := makePage('x')
	if err := b.SwapOut(0, 1, page); err != nil {
		t.Fatal(err)
	}
	if err := b.SwapOut(0, 1, page); err != ErrExists {
		t.Errorf("duplicate swap out: err = %v, want ErrExists", err)
	}
}

func TestSwapInErrors(t *testing.T) {
	b := newBackend()
	dst := make([]byte, PageSize)
	if err := b.SwapIn(0, 42, dst, false); err != ErrNotFound {
		t.Errorf("missing page: err = %v, want ErrNotFound", err)
	}
	b.SwapOut(0, 1, makePage('x'))
	if err := b.SwapIn(0, 1, make([]byte, 10), false); err == nil {
		t.Error("short dst accepted")
	}
}

func TestIncompressiblePageStoredRaw(t *testing.T) {
	b := newBackend()
	page := make([]byte, PageSize)
	rand.New(rand.NewSource(1)).Read(page)
	if err := b.SwapOut(0, 1, page); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.IncompressiblePages != 1 {
		t.Errorf("incompressible pages = %d, want 1", st.IncompressiblePages)
	}
	dst := make([]byte, PageSize)
	if err := b.SwapIn(0, 1, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, page) {
		t.Fatal("raw passthrough corrupted page")
	}
}

func TestRegionCapacityEnforced(t *testing.T) {
	// Region of 2 encapsulating pages; random pages stored raw take a
	// full page each.
	b := NewCPUBackend(compress.NewLZFast(), 2*4096)
	rng := rand.New(rand.NewSource(2))
	full := 0
	for i := 0; i < 5; i++ {
		page := make([]byte, PageSize)
		rng.Read(page)
		if err := b.SwapOut(0, PageID(i+1), page); err == ErrFull {
			full++
		}
	}
	if full == 0 {
		t.Error("region never reported full")
	}
}

func TestCompressionRatioTracked(t *testing.T) {
	b := newBackend()
	for i := 0; i < 10; i++ {
		// Repetitive but not same-filled (the first word differs), so
		// the page takes the codec path.
		page := makePage(byte(i))
		page[0] = byte(i + 1)
		b.SwapOut(0, PageID(i+1), page)
	}
	st := b.Stats()
	if r := st.CompressionRatio(); r < 10 {
		t.Errorf("ratio on constant pages = %.1f, want large", r)
	}
	if st.SwapOuts != 10 || st.StoredPages != 10 {
		t.Errorf("stats = %+v", st)
	}
	if st.CPUCycles <= 0 {
		t.Error("no CPU cycles accounted")
	}
}

func TestHeapTouchFaultsAndRestores(t *testing.T) {
	h := NewHeap(newBackend())
	id := h.Alloc(0, []byte("hello far memory"))
	if err := h.SwapOut(0, id); err != nil {
		t.Fatal(err)
	}
	if h.Resident(id) {
		t.Fatal("page still resident after swap out")
	}
	data, err := h.Touch(dram.Millisecond, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("hello far memory")) {
		t.Fatal("content lost")
	}
	st := h.Stats()
	if st.DemandFaults != 1 {
		t.Errorf("demand faults = %d, want 1", st.DemandFaults)
	}
	if st.ResidentPages != 1 || st.FarPages != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHeapPrefetch(t *testing.T) {
	h := NewHeap(newBackend())
	id := h.Alloc(0, []byte("prefetch me"))
	h.SwapOut(0, id)
	if err := h.Prefetch(0, id); err != nil {
		t.Fatal(err)
	}
	if !h.Resident(id) {
		t.Fatal("page not resident after prefetch")
	}
	st := h.Stats()
	if st.PrefetchedPages != 1 || st.DemandFaults != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Prefetching a resident page is a no-op.
	if err := h.Prefetch(0, id); err != nil {
		t.Fatal(err)
	}
	if h.Stats().PrefetchedPages != 1 {
		t.Error("resident prefetch counted")
	}
}

func TestHeapDoubleSwapOut(t *testing.T) {
	h := NewHeap(newBackend())
	id := h.Alloc(0, nil)
	if err := h.SwapOut(0, id); err != nil {
		t.Fatal(err)
	}
	if err := h.SwapOut(0, id); err != ErrExists {
		t.Errorf("double swap out: err = %v, want ErrExists", err)
	}
}

func TestHeapUnknownPage(t *testing.T) {
	h := NewHeap(newBackend())
	if _, err := h.Touch(0, 123); err == nil {
		t.Error("touch of unknown page succeeded")
	}
	if err := h.SwapOut(0, 123); err == nil {
		t.Error("swap out of unknown page succeeded")
	}
	if err := h.Prefetch(0, 123); err == nil {
		t.Error("prefetch of unknown page succeeded")
	}
}

func TestColdScanControllerDemotesIdlePages(t *testing.T) {
	h := NewHeap(newBackend())
	hot := h.Alloc(0, []byte("hot"))
	cold := h.Alloc(0, []byte("cold"))
	// Advance: touch only the hot page.
	now := 120 * dram.Second
	h.Touch(now, hot)
	ctl := &ColdScanController{Heap: h, ColdAfter: 60 * dram.Second}
	n := ctl.Run(now)
	if n != 1 {
		t.Fatalf("controller demoted %d pages, want 1", n)
	}
	if !h.Resident(hot) {
		t.Error("hot page demoted")
	}
	if h.Resident(cold) {
		t.Error("cold page not demoted")
	}
}

func TestPressureControllerEvictsLRU(t *testing.T) {
	h := NewHeap(newBackend())
	var ids []PageID
	for i := 0; i < 6; i++ {
		ids = append(ids, h.Alloc(dram.Ps(i)*dram.Second, nil))
	}
	// Touch pages 0 and 1 recently: they become MRU.
	h.Touch(100*dram.Second, ids[0])
	h.Touch(101*dram.Second, ids[1])
	ctl := &PressureController{Heap: h, TargetResidentPages: 3}
	n := ctl.Run(200 * dram.Second)
	if n != 3 {
		t.Fatalf("evicted %d, want 3", n)
	}
	// The three oldest by last access are ids[2..4].
	for _, id := range ids[2:5] {
		if h.Resident(id) {
			t.Errorf("LRU page %d not evicted", id)
		}
	}
	for _, id := range []PageID{ids[0], ids[1], ids[5]} {
		if !h.Resident(id) {
			t.Errorf("MRU page %d evicted", id)
		}
	}
}

func TestPressureControllerNoopUnderTarget(t *testing.T) {
	h := NewHeap(newBackend())
	h.Alloc(0, nil)
	ctl := &PressureController{Heap: h, TargetResidentPages: 5}
	if n := ctl.Run(dram.Second); n != 0 {
		t.Errorf("evicted %d under target", n)
	}
}

// TestHeapContentFidelityUnderChurn drives random swap traffic and
// verifies every page keeps its content.
func TestHeapContentFidelityUnderChurn(t *testing.T) {
	h := NewHeap(NewCPUBackend(compress.NewXDeflate(), 0))
	rng := rand.New(rand.NewSource(77))
	want := map[PageID]byte{}
	var ids []PageID
	for i := 0; i < 50; i++ {
		fill := byte(rng.Intn(256))
		id := h.Alloc(0, makePage(fill))
		want[id] = fill
		ids = append(ids, id)
	}
	for op := 0; op < 2000; op++ {
		id := ids[rng.Intn(len(ids))]
		now := dram.Ps(op) * dram.Microsecond
		switch rng.Intn(3) {
		case 0:
			if h.Resident(id) {
				h.SwapOut(now, id)
			}
		case 1:
			data, err := h.Touch(now, id)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != want[id] || data[PageSize-1] != want[id] {
				t.Fatalf("page %d content lost", id)
			}
		case 2:
			h.Prefetch(now, id)
		}
	}
	for _, id := range ids {
		data, err := h.Touch(dram.Second, id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != want[id] {
			t.Fatalf("final content of %d wrong", id)
		}
	}
}

func TestBackendCompactAfterChurn(t *testing.T) {
	b := newBackend()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		page := make([]byte, PageSize)
		for j := range page {
			page[j] = byte(rng.Intn(4)) // compressible but varied sizes
		}
		if err := b.SwapOut(0, PageID(i+1), page); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, PageSize)
	for i := 0; i < 100; i += 2 {
		if err := b.SwapIn(0, PageID(i+1), dst, false); err != nil {
			t.Fatal(err)
		}
	}
	before := b.Stats().Region.PageBytes
	b.Compact()
	after := b.Stats().Region.PageBytes
	if after > before {
		t.Errorf("compaction grew the region: %d -> %d", before, after)
	}
	// Remaining pages still correct.
	for i := 1; i < 100; i += 2 {
		if err := b.SwapIn(0, PageID(i+1), dst, false); err != nil {
			t.Fatalf("page %d after compact: %v", i+1, err)
		}
	}
}

func BenchmarkSwapOutCompressible(b *testing.B) {
	back := newBackend()
	page := makePage('z')
	dst := make([]byte, PageSize)
	for i := 0; i < b.N; i++ {
		id := PageID(i + 1)
		if err := back.SwapOut(0, id, page); err != nil {
			b.Fatal(err)
		}
		if err := back.SwapIn(0, id, dst, false); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSameFilledPageOptimization(t *testing.T) {
	b := newBackend()
	// A zero page and a constant-word page store without zsmalloc.
	zero := make([]byte, PageSize)
	if err := b.SwapOut(0, 1, zero); err != nil {
		t.Fatal(err)
	}
	patterned := make([]byte, PageSize)
	for off := 0; off < PageSize; off += 8 {
		copy(patterned[off:], []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef})
	}
	if err := b.SwapOut(0, 2, patterned); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.SameFilledPages != 2 {
		t.Errorf("same-filled pages = %d, want 2", st.SameFilledPages)
	}
	if st.Region.PageBytes != 0 {
		t.Errorf("same-filled pages consumed %d region bytes, want 0", st.Region.PageBytes)
	}
	dst := make([]byte, PageSize)
	if err := b.SwapIn(0, 1, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, zero) {
		t.Error("zero page corrupted")
	}
	if err := b.SwapIn(0, 2, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, patterned) {
		t.Error("patterned page corrupted")
	}
	if b.Stats().StoredPages != 0 {
		t.Error("pages not removed after swap in")
	}
}

func TestAlmostSameFilledGoesToCodec(t *testing.T) {
	b := newBackend()
	page := make([]byte, PageSize)
	page[PageSize-1] = 1 // breaks the fill pattern
	if err := b.SwapOut(0, 1, page); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.SameFilledPages != 0 {
		t.Error("non-uniform page treated as same-filled")
	}
	if st.Region.PageBytes == 0 {
		t.Error("page not stored in region")
	}
	dst := make([]byte, PageSize)
	if err := b.SwapIn(0, 1, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, page) {
		t.Error("content corrupted")
	}
}

func TestCompactOnFullRecoversSpace(t *testing.T) {
	// Region of 4 encapsulating pages. Fill two pages with small-class
	// objects and two with big-class objects, punch holes in the small
	// class, then store another big object: only compaction (merging
	// the sparse small-class pages) frees a whole page for it.
	b := NewCPUBackend(compress.NewLZFast(), 4*4096)
	mixed := func(seed int64, randomBytes int) []byte {
		// Compresses to ≈ randomBytes (+ small framing).
		p := make([]byte, PageSize)
		rand.New(rand.NewSource(seed)).Read(p[:randomBytes])
		return p
	}
	// Small class (~1.25 KiB compressed, 3 slots per page): 6 objects
	// fill 2 pages.
	for i := 0; i < 6; i++ {
		if err := b.SwapOut(0, PageID(i+1), mixed(int64(i), 1200)); err != nil {
			t.Fatalf("small fill %d: %v", i, err)
		}
	}
	// Big class (~2.4 KiB compressed, 1 slot per page): 2 objects fill
	// the remaining 2 pages.
	for i := 0; i < 2; i++ {
		if err := b.SwapOut(0, PageID(100+i), mixed(int64(100+i), 2400)); err != nil {
			t.Fatalf("big fill %d: %v", i, err)
		}
	}
	// Punch holes: free 4 of the 6 small objects.
	dst := make([]byte, PageSize)
	for _, id := range []PageID{1, 2, 4, 6} {
		if err := b.SwapIn(0, id, dst, false); err != nil {
			t.Fatal(err)
		}
	}
	// Another big object needs a fresh page: capacity-triggered
	// compaction must consolidate the small class and make room.
	if err := b.SwapOut(0, 200, mixed(200, 2400)); err != nil {
		t.Fatalf("post-fragmentation store failed: %v", err)
	}
	if got := b.Stats().CompactOnFull; got == 0 {
		t.Error("capacity-triggered compaction not recorded")
	}
}

// TestIndexAgainstMap drives random SwapOut/SwapIn/Contains sequences
// on a CPUBackend against a map oracle, over id spaces of 8 … 1 024
// ids, so swap-ins and re-swap-outs hit often in the small ones. After
// every op: the error is the one the oracle predicts, a swapped-in
// page is the page stored under that id, Contains agrees, and
// StoredPages is the oracle's size.
func TestIndexAgainstMap(t *testing.T) {
	pages := [][]byte{makePage(0), make([]byte, PageSize)} // same-filled, incompressible
	rand.New(rand.NewSource(9)).Read(pages[1])
	for id := PageID(0); id < 6; id++ {
		pages = append(pages, randomPage(id))
	}
	dst := make([]byte, PageSize)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(1<<uint(2+seed))
		b := newBackend()
		ref := map[PageID][]byte{}
		for op := 0; op < 3000; op++ {
			id := PageID(rng.Intn(keys))
			want, live := ref[id]
			switch rng.Intn(4) {
			case 0, 1:
				page := pages[rng.Intn(len(pages))]
				err := b.SwapOut(0, id, page)
				if live && err != ErrExists || !live && err != nil {
					t.Fatalf("seed %d op %d: SwapOut(%d) = %v with the id stored = %v", seed, op, id, err, live)
				}
				if !live {
					ref[id] = page
				}
			case 2:
				err := b.SwapIn(0, id, dst, false)
				if live && err != nil || !live && err != ErrNotFound {
					t.Fatalf("seed %d op %d: SwapIn(%d) = %v with the id stored = %v", seed, op, id, err, live)
				}
				if live && !bytes.Equal(dst, want) {
					t.Fatalf("seed %d op %d: SwapIn(%d) restored another page", seed, op, id)
				}
				delete(ref, id)
			case 3:
				if b.Contains(id) != live {
					t.Fatalf("seed %d op %d: Contains(%d) = %v, want %v", seed, op, id, !live, live)
				}
			}
			if _, ok := ref[id]; b.Contains(id) != ok {
				t.Fatalf("seed %d op %d: id %d stored = %v after the op, want %v", seed, op, id, !ok, ok)
			}
			if got := b.Stats().StoredPages; got != int64(len(ref)) {
				t.Fatalf("seed %d op %d: StoredPages = %d, want %d", seed, op, got, len(ref))
			}
		}
	}
}
