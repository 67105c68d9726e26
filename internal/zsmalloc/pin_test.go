package zsmalloc

import (
	"bytes"
	"testing"
)

// fillPages allocates count objects of size n and returns their
// handles and contents.
func fillPages(t *testing.T, a *Allocator, count, n int) ([]Handle, [][]byte) {
	t.Helper()
	hs := make([]Handle, count)
	data := make([][]byte, count)
	for i := range hs {
		data[i] = bytes.Repeat([]byte{byte('a' + i%23)}, n)
		h, err := a.Alloc(data[i])
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return hs, data
}

func TestPinReturnsLiveBytes(t *testing.T) {
	a := New(0)
	hs, data := fillPages(t, a, 3, 100)
	raw, err := a.Pin(hs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, data[1]) {
		t.Fatal("pinned bytes differ from stored object")
	}
	if err := a.Unpin(hs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Pin(Handle(999)); err != ErrInvalidHandle {
		t.Fatalf("Pin(bad) = %v, want ErrInvalidHandle", err)
	}
	if err := a.Unpin(Handle(999)); err != ErrInvalidHandle {
		t.Fatalf("Unpin(bad) = %v, want ErrInvalidHandle", err)
	}
}

// TestPinExcludesFromCompaction fragments two pages, pins the only
// object left on the sparse source page, and checks compaction leaves
// the pinned bytes in place (the Pin-returned slice stays valid — the
// batch engine decompresses from it with no lock held).
func TestPinExcludesFromCompaction(t *testing.T) {
	a := New(0)
	// 1000-byte objects land in the 1024 class: four per page, so 8
	// objects fill two pages deterministically (0-3 and 4-7).
	hs, data := fillPages(t, a, 8, 1000)
	// Page 1 loses one object (free=1), page 2 loses three (free=3),
	// so page 2 is unambiguously the compaction source.
	for _, h := range []Handle{hs[0], hs[5], hs[6], hs[7]} {
		if err := a.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := a.Pin(hs[4]) // the source page's only survivor
	if err != nil {
		t.Fatal(err)
	}
	moved := a.Compact()
	if moved != 0 {
		t.Fatalf("compaction moved %d bytes; the only movable candidate was pinned", moved)
	}
	if !bytes.Equal(raw, data[4]) {
		t.Fatal("pinned slice invalidated by compaction")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Unpinned, the survivor migrates and its page is released.
	if err := a.Unpin(hs[4]); err != nil {
		t.Fatal(err)
	}
	if moved := a.Compact(); moved != 1000 {
		t.Fatalf("post-unpin compaction moved %d bytes, want 1000", moved)
	}
	got, err := a.Get(nil, hs[4])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[4]) {
		t.Fatal("object corrupted by post-unpin compaction")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeEndsPin pins an object, frees it without unpinning, and
// checks the slot is genuinely recycled (the contract commitIn relies
// on: Free on the success path ends the pin implicitly).
func TestFreeEndsPin(t *testing.T) {
	a := New(0)
	hs, _ := fillPages(t, a, 2, 300)
	if _, err := a.Pin(hs[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(hs[0]); err != nil {
		t.Fatal(err)
	}
	// The freed slot must be allocatable and movable again.
	h, err := a.Alloc(bytes.Repeat([]byte{'z'}, 300))
	if err != nil {
		t.Fatal(err)
	}
	if a.lookup(h).pinned {
		t.Fatal("recycled slot kept its pin bit")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSparePageReuse drains an allocator and checks emptied
// encapsulating pages come back from the spare cache instead of the
// heap, without double-counting PageBytes.
func TestSparePageReuse(t *testing.T) {
	a := New(0)
	hs, _ := fillPages(t, a, 8, 1000)
	before := a.Stats().PageBytes
	for _, h := range hs {
		if err := a.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().PageBytes; got != 0 {
		t.Fatalf("PageBytes = %d after draining, want 0 (spare pages are not held)", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	hs2, data2 := fillPages(t, a, 8, 1000)
	if got := a.Stats().PageBytes; got != before {
		t.Fatalf("PageBytes = %d after refill, want %d", got, before)
	}
	for i, h := range hs2 {
		got, err := a.Get(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data2[i]) {
			t.Fatalf("object %d corrupted after spare-page reuse", i)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllPinnedSourceSkipped pins every object on the sparse source
// page and checks compaction terminates and skips it (the hi--
// continue path) rather than spinning or moving pinned bytes.
func TestAllPinnedSourceSkipped(t *testing.T) {
	a := New(0)
	hs, _ := fillPages(t, a, 4, 2000) // two per page
	if err := a.Free(hs[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(hs[3]); err != nil {
		t.Fatal(err)
	}
	for _, h := range []Handle{hs[1], hs[2]} {
		if _, err := a.Pin(h); err != nil {
			t.Fatal(err)
		}
	}
	if moved := a.Compact(); moved != 0 {
		t.Fatalf("compaction moved %d bytes with every candidate pinned", moved)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocReusesFreedSlotStructs drives alloc/free cycles and checks
// the steady state allocates nothing (the handle table's free list and
// the spare-page caches feed the batch engine's zero-alloc hot path).
func TestAllocReusesFreedSlotStructs(t *testing.T) {
	a := New(0)
	payload := bytes.Repeat([]byte{'q'}, 500)
	// Warm the caches.
	for i := 0; i < 3; i++ {
		hs := make([]Handle, 16)
		for j := range hs {
			h, err := a.Alloc(payload)
			if err != nil {
				t.Fatal(err)
			}
			hs[j] = h
		}
		for _, h := range hs {
			if err := a.Free(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		h, err := a.Alloc(payload)
		if err != nil {
			panic(err)
		}
		if err := a.Free(h); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state alloc/free cycle: %.1f allocs/op, want 0", allocs)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleAfterReuse frees a handle, allocates again so the
// freed slot is reused, and checks the old handle still names nothing:
// Get, Pin, Unpin and Free on it fail and leave the new object alone.
// Handles that were never issued (0, a small integer) fail too.
func TestStaleHandleAfterReuse(t *testing.T) {
	a := New(0)
	hs, _ := fillPages(t, a, 3, 100)
	stale := hs[1]
	if err := a.Free(stale); err != nil {
		t.Fatal(err)
	}
	fresh, data := fillPages(t, a, 1, 200)
	if fresh[0] == stale {
		t.Fatalf("Alloc reissued the freed handle %#x", stale)
	}
	for _, h := range []Handle{stale, 0, 999} {
		if _, err := a.Get(nil, h); err != ErrInvalidHandle {
			t.Errorf("Get(%#x) = %v, want ErrInvalidHandle", h, err)
		}
		if _, err := a.Pin(h); err != ErrInvalidHandle {
			t.Errorf("Pin(%#x) = %v, want ErrInvalidHandle", h, err)
		}
		if err := a.Unpin(h); err != ErrInvalidHandle {
			t.Errorf("Unpin(%#x) = %v, want ErrInvalidHandle", h, err)
		}
		if err := a.Free(h); err != ErrInvalidHandle {
			t.Errorf("Free(%#x) = %v, want ErrInvalidHandle", h, err)
		}
	}
	got, err := a.Get(nil, fresh[0])
	if err != nil || !bytes.Equal(got, data[0]) {
		t.Fatalf("Get(fresh) = %q, %v after the stale-handle calls", got, err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
