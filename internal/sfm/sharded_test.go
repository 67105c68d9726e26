package sfm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xfm/internal/compress"
)

// randomPage builds a compressible page seeded by id so content is
// verifiable after a round trip.
func randomPage(id PageID) []byte {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	p := make([]byte, 0, PageSize)
	for len(p) < PageSize {
		tok := byte('a' + rng.Intn(8))
		run := 4 + rng.Intn(24)
		for i := 0; i < run && len(p) < PageSize; i++ {
			p = append(p, tok)
		}
	}
	return p
}

func makeBatchOut(ids []PageID) []PageOut {
	out := make([]PageOut, len(ids))
	for i, id := range ids {
		out[i] = PageOut{ID: id, Data: randomPage(id)}
	}
	return out
}

func makeBatchIn(ids []PageID) []PageIn {
	in := make([]PageIn, len(ids))
	for i, id := range ids {
		in[i] = PageIn{ID: id, Dst: make([]byte, PageSize)}
	}
	return in
}

func TestShardedBatchRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			b := NewShardedBackend(compress.NewLZFast(), 0, 8, workers)
			ids := make([]PageID, 64)
			for i := range ids {
				ids[i] = PageID(i)
			}
			outs := makeBatchOut(ids)
			if err := errors.Join(b.SwapOutBatch(0, outs)...); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if !b.Contains(id) {
					t.Fatalf("page %d missing after batch swap out", id)
				}
			}
			ins := makeBatchIn(ids)
			if err := errors.Join(b.SwapInBatch(0, ins, false)...); err != nil {
				t.Fatal(err)
			}
			for i, p := range ins {
				if !bytes.Equal(p.Dst, outs[i].Data) {
					t.Fatalf("page %d corrupted by batch round trip", p.ID)
				}
				if b.Contains(p.ID) {
					t.Fatalf("page %d still stored after batch swap in", p.ID)
				}
			}
		})
	}
}

// TestShardedBatchMatchesSerial checks that a parallel batch produces
// the same aggregate stats and stored state as per-page serial calls
// on a plain CPU backend.
func TestShardedBatchMatchesSerial(t *testing.T) {
	codec := compress.NewLZFast()
	serial := NewCPUBackend(codec, 0)
	sharded := NewShardedBackend(codec, 0, 8, 4)

	ids := make([]PageID, 96)
	for i := range ids {
		ids[i] = PageID(i * 7)
	}
	outs := makeBatchOut(ids)
	for _, p := range outs {
		if err := serial.SwapOut(0, p.ID, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(sharded.SwapOutBatch(0, outs)...); err != nil {
		t.Fatal(err)
	}

	ss, ps := serial.Stats(), sharded.Stats()
	// The region is sharded, so page-packing fields can differ; the
	// logical swap accounting must not.
	if ss.SwapOuts != ps.SwapOuts || ss.BytesOut != ps.BytesOut ||
		ss.StoredPages != ps.StoredPages || ss.CompressedBytes != ps.CompressedBytes ||
		ss.SameFilledPages != ps.SameFilledPages || ss.IncompressiblePages != ps.IncompressiblePages ||
		ss.CPUCycles != ps.CPUCycles {
		t.Fatalf("stats diverge:\nserial  %+v\nsharded %+v", ss, ps)
	}

	ins := makeBatchIn(ids)
	if err := errors.Join(sharded.SwapInBatch(0, ins, false)...); err != nil {
		t.Fatal(err)
	}
	for i, p := range ins {
		if !bytes.Equal(p.Dst, outs[i].Data) {
			t.Fatalf("page %d corrupted", p.ID)
		}
	}
	if got := sharded.Stats().StoredPages; got != 0 {
		t.Fatalf("StoredPages = %d after draining, want 0", got)
	}
}

func TestShardedBatchErrorAlignment(t *testing.T) {
	b := NewShardedBackend(compress.NewLZFast(), 0, 4, 2)
	outs := []PageOut{
		{ID: 1, Data: randomPage(1)},
		{ID: 2, Data: []byte("short")},
		{ID: 1, Data: randomPage(1)}, // duplicate of slot 0
		{ID: 3, Data: randomPage(3)},
	}
	errs := b.SwapOutBatch(0, outs)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid pages failed: %v %v", errs[0], errs[3])
	}
	if errs[1] == nil {
		t.Error("short page accepted")
	}
	if errs[2] != ErrExists {
		t.Errorf("duplicate: err = %v, want ErrExists", errs[2])
	}

	ins := []PageIn{
		{ID: 3, Dst: make([]byte, PageSize)},
		{ID: 99, Dst: make([]byte, PageSize)}, // never stored
		{ID: 1, Dst: make([]byte, PageSize)},
	}
	errs = b.SwapInBatch(0, ins, false)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid pages failed: %v %v", errs[0], errs[2])
	}
	if errs[1] != ErrNotFound {
		t.Errorf("missing page: err = %v, want ErrNotFound", errs[1])
	}
}

// TestShardedConcurrentStress hammers one sharded backend from many
// goroutines mixing batch and single-page operations on disjoint id
// ranges, plus shared read-mostly calls. Run with -race; it exists to
// prove the shard locking, not to measure anything.
func TestShardedConcurrentStress(t *testing.T) {
	b := NewShardedBackend(compress.NewXDeflate(), 0, 8, 4)
	const (
		goroutines = 8
		perG       = 32
		rounds     = 3
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := PageID(g * 1000)
			ids := make([]PageID, perG)
			for i := range ids {
				ids[i] = base + PageID(i)
			}
			for r := 0; r < rounds; r++ {
				outs := makeBatchOut(ids)
				if g%2 == 0 {
					if err := errors.Join(b.SwapOutBatch(0, outs)...); err != nil {
						t.Error(err)
						return
					}
				} else {
					for _, p := range outs {
						if err := b.SwapOut(0, p.ID, p.Data); err != nil {
							t.Error(err)
							return
						}
					}
				}
				_ = b.Stats()
				_ = b.Contains(ids[0])
				ins := makeBatchIn(ids)
				if err := errors.Join(b.SwapInBatch(0, ins, r%2 == 0)...); err != nil {
					t.Error(err)
					return
				}
				for i, p := range ins {
					if !bytes.Equal(p.Dst, outs[i].Data) {
						t.Errorf("goroutine %d round %d: page %d corrupted", g, r, p.ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := b.Stats().StoredPages; got != 0 {
		t.Fatalf("StoredPages = %d after stress, want 0", got)
	}
	b.Compact()
}

// TestTracingBatch checks the tracing wrapper records batch operations
// exactly as a serial loop would.
func TestTracingBatch(t *testing.T) {
	tb := NewTracingBackend(NewCPUBackend(compress.NewLZFast(), 0))
	ids := []PageID{5, 6, 7}
	if err := errors.Join(tb.SwapOutBatch(100, makeBatchOut(ids))...); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(tb.SwapInBatch(200, makeBatchIn(ids), true)...); err != nil {
		t.Fatal(err)
	}
	recs := tb.Trace()
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	for i, id := range ids {
		if recs[i].PageID != int64(id) || recs[i].Op != 'O' {
			t.Errorf("record %d = %+v, want swap-out of page %d", i, recs[i], id)
		}
		if recs[3+i].PageID != int64(id) || recs[3+i].Op != 'P' {
			t.Errorf("record %d = %+v, want prefetch of page %d", 3+i, recs[3+i], id)
		}
	}
}
