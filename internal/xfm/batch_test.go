package xfm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

func compressiblePage(id sfm.PageID) []byte {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	p := make([]byte, 0, sfm.PageSize)
	for len(p) < sfm.PageSize {
		tok := byte('a' + rng.Intn(8))
		run := 4 + rng.Intn(24)
		for i := 0; i < run && len(p) < sfm.PageSize; i++ {
			p = append(p, tok)
		}
	}
	return p
}

func batchIDs(n int) []sfm.PageID {
	ids := make([]sfm.PageID, n)
	for i := range ids {
		ids[i] = sfm.PageID(i * 3)
	}
	return ids
}

// TestBackendBatchMatchesSerial drives two identically configured XFM
// backends — one page at a time, one batched — and requires identical
// stats, ECC accounting, and restored bytes.
func TestBackendBatchMatchesSerial(t *testing.T) {
	mk := func() *Backend {
		sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
		b, err := NewBackend(compress.NewLZFast(), 1<<30,
			NewDriver(sim), memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial, batched := mk(), mk()

	ids := batchIDs(48)
	outs := make([]sfm.PageOut, len(ids))
	for i, id := range ids {
		outs[i] = sfm.PageOut{ID: id, Data: compressiblePage(id)}
	}
	now := 50 * dram.Microsecond
	for _, p := range outs {
		if err := serial.SwapOut(now, p.ID, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(batched.SwapOutBatch(now, outs)...); err != nil {
		t.Fatal(err)
	}
	if s, b := serial.Stats(), batched.Stats(); s != b {
		t.Fatalf("post-swap-out stats diverge:\nserial  %+v\nbatched %+v", s, b)
	}

	for _, offload := range []bool{false, true} {
		t.Run(fmt.Sprintf("offload=%v", offload), func(t *testing.T) {
			serial, batched := mk(), mk()
			if err := errors.Join(serial.SwapOutBatch(now, outs)...); err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(batched.SwapOutBatch(now, outs)...); err != nil {
				t.Fatal(err)
			}
			later := now + 10*dram.Microsecond
			sIns := make([]sfm.PageIn, len(ids))
			bIns := make([]sfm.PageIn, len(ids))
			for i, id := range ids {
				sIns[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
				bIns[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
			}
			for _, p := range sIns {
				if err := serial.SwapIn(later, p.ID, p.Dst, offload); err != nil {
					t.Fatal(err)
				}
			}
			if err := errors.Join(batched.SwapInBatch(later, bIns, offload)...); err != nil {
				t.Fatal(err)
			}
			for i := range ids {
				if !bytes.Equal(sIns[i].Dst, outs[i].Data) || !bytes.Equal(bIns[i].Dst, outs[i].Data) {
					t.Fatalf("page %d corrupted", ids[i])
				}
			}
			if s, b := serial.Stats(), batched.Stats(); s != b {
				t.Fatalf("post-swap-in stats diverge:\nserial  %+v\nbatched %+v", s, b)
			}
			sp, sc, su := serial.ECCStats()
			bp, bc, bu := batched.ECCStats()
			if sp != bp || sc != bc || su != bu {
				t.Fatalf("ECC stats diverge: serial (%d,%d,%d) batched (%d,%d,%d)",
					sp, sc, su, bp, bc, bu)
			}
		})
	}
}

// TestShardedXFMBackendRoundTrip exercises the sharded-inner
// constructor end to end.
func TestShardedXFMBackendRoundTrip(t *testing.T) {
	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	b, err := NewShardedBackend(compress.NewXDeflate(), 1<<30, 8, 4,
		NewDriver(sim), memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
	if err != nil {
		t.Fatal(err)
	}
	ids := batchIDs(64)
	outs := make([]sfm.PageOut, len(ids))
	for i, id := range ids {
		outs[i] = sfm.PageOut{ID: id, Data: compressiblePage(id)}
	}
	now := 50 * dram.Microsecond
	if err := errors.Join(b.SwapOutBatch(now, outs)...); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().StoredPages; got != int64(len(ids)) {
		t.Fatalf("StoredPages = %d, want %d", got, len(ids))
	}
	ins := make([]sfm.PageIn, len(ids))
	for i, id := range ids {
		ins[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
	}
	if err := errors.Join(b.SwapInBatch(now+10*dram.Microsecond, ins, true)...); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !bytes.Equal(ins[i].Dst, outs[i].Data) {
			t.Fatalf("page %d corrupted", ids[i])
		}
	}
}

// TestGroupBatchMatchesSerial does the serial-vs-batch comparison for
// the multi-channel backend.
func TestGroupBatchMatchesSerial(t *testing.T) {
	mk := func() *GroupBackend {
		drivers := []*Driver{
			NewDriver(nma.NewSim(nma.DefaultConfig(dram.Device32Gb))),
			NewDriver(nma.NewSim(nma.DefaultConfig(dram.Device32Gb))),
		}
		g, err := NewGroupBackend(func(w int) compress.Codec {
			return compress.NewXDeflateWindow(w)
		}, 1<<30, drivers, memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	serial, batched := mk(), mk()

	ids := batchIDs(32)
	outs := make([]sfm.PageOut, len(ids))
	for i, id := range ids {
		outs[i] = sfm.PageOut{ID: id, Data: compressiblePage(id)}
	}
	now := 50 * dram.Microsecond
	for _, p := range outs {
		if err := serial.SwapOut(now, p.ID, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(batched.SwapOutBatch(now, outs)...); err != nil {
		t.Fatal(err)
	}
	if s, b := serial.Stats(), batched.Stats(); s != b {
		t.Fatalf("post-swap-out stats diverge:\nserial  %+v\nbatched %+v", s, b)
	}
	if s, b := serial.FragmentationBytes(), batched.FragmentationBytes(); s != b {
		t.Fatalf("fragmentation diverges: serial %d batched %d", s, b)
	}

	later := now + 10*dram.Microsecond
	sIns := make([]sfm.PageIn, len(ids))
	bIns := make([]sfm.PageIn, len(ids))
	for i, id := range ids {
		sIns[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
		bIns[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
	}
	for _, p := range sIns {
		if err := serial.SwapIn(later, p.ID, p.Dst, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(batched.SwapInBatch(later, bIns, true)...); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !bytes.Equal(sIns[i].Dst, outs[i].Data) || !bytes.Equal(bIns[i].Dst, outs[i].Data) {
			t.Fatalf("page %d corrupted", ids[i])
		}
	}
	if s, b := serial.Stats(), batched.Stats(); s != b {
		t.Fatalf("post-swap-in stats diverge:\nserial  %+v\nbatched %+v", s, b)
	}
}

// TestGroupBatchDuplicateID: a page appearing twice in one batch
// behaves like a serial loop — first occurrence wins.
func TestGroupBatchDuplicateID(t *testing.T) {
	drivers := []*Driver{NewDriver(nma.NewSim(nma.DefaultConfig(dram.Device32Gb)))}
	g, err := NewGroupBackend(func(w int) compress.Codec {
		return compress.NewLZFastWindow(w)
	}, 1<<30, drivers, memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
	if err != nil {
		t.Fatal(err)
	}
	pg := compressiblePage(9)
	errs := g.SwapOutBatch(0, []sfm.PageOut{{ID: 9, Data: pg}, {ID: 9, Data: pg}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if errs[1] != sfm.ErrExists {
		t.Fatalf("duplicate swap out: err = %v, want ErrExists", errs[1])
	}
	ins := []sfm.PageIn{
		{ID: 9, Dst: make([]byte, sfm.PageSize)},
		{ID: 9, Dst: make([]byte, sfm.PageSize)},
	}
	errs = g.SwapInBatch(0, ins, false)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if errs[1] != sfm.ErrNotFound {
		t.Fatalf("duplicate swap in: err = %v, want ErrNotFound", errs[1])
	}
	if !bytes.Equal(ins[0].Dst, pg) {
		t.Fatal("page corrupted")
	}
}

// TestSplitIntoGatherInto checks the scratch-backed split/gather agree
// with the allocating versions and invert each other.
func TestSplitIntoGatherInto(t *testing.T) {
	for _, d := range []int{1, 2, 4} {
		layout := DefaultLayout(d)
		pg := compressiblePage(sfm.PageID(d))
		want := layout.Split(pg)
		s := compress.GetScratch()
		got := layout.SplitInto(s.Parts(d), pg)
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("%d DIMMs: SplitInto part %d differs from Split", d, i)
			}
		}
		back := layout.GatherInto(nil, got)
		if !bytes.Equal(back, pg) {
			t.Fatalf("%d DIMMs: GatherInto did not invert SplitInto", d)
		}
		s.Release()
	}
}

// TestDecompressPageInto matches DecompressPage and reuses dst.
func TestDecompressPageInto(t *testing.T) {
	layout := DefaultLayout(4)
	newCodec := func(w int) compress.Codec { return compress.NewXDeflateWindow(w) }
	pg := compressiblePage(77)
	cl := layout.CompressPage(pg, newCodec)
	want, err := layout.DecompressPage(cl, newCodec, sfm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, sfm.PageSize)
	got, err := layout.DecompressPageInto(dst[:0], cl, newCodec, sfm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) || !bytes.Equal(got, pg) {
		t.Fatal("DecompressPageInto differs from DecompressPage")
	}
	if &got[0] != &dst[0] {
		t.Error("DecompressPageInto reallocated despite sufficient capacity")
	}
}
