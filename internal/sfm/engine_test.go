package sfm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/corpus"
	"xfm/internal/zsmalloc"
)

// mixedBatchOut builds a batch exercising every stage class: ordinary
// compressible pages, same-filled (zero) pages, incompressible
// (random) pages, one short page, and one duplicate id.
func mixedBatchOut(n int) []PageOut {
	rng := rand.New(rand.NewSource(42))
	outs := make([]PageOut, 0, n+2)
	for i := 0; i < n; i++ {
		id := PageID(i * 3)
		var data []byte
		switch i % 4 {
		case 0, 1:
			data = randomPage(id)
		case 2:
			data = make([]byte, PageSize) // same-filled
		default:
			data = make([]byte, PageSize) // incompressible
			rng.Read(data)
		}
		outs = append(outs, PageOut{ID: id, Data: data})
	}
	outs = append(outs, PageOut{ID: 1_000_000, Data: []byte("short")})
	outs = append(outs, PageOut{ID: outs[0].ID, Data: randomPage(outs[0].ID)}) // duplicate
	return outs
}

// TestBatchWorkerCountInvariance pins the commit-ordering invariant:
// results, stats, and restored bytes must be identical at every worker
// count — the pipeline only changes who compresses, never what is
// committed. Run under -cpu=1,2,4 in CI so the inline path (one
// effective worker) and the fan-out path are both covered.
func TestBatchWorkerCountInvariance(t *testing.T) {
	type outcome struct {
		outErrs []string
		stats   BackendStats
		inErrs  []string
		pages   [][]byte
	}
	run := func(workers int) outcome {
		b := NewShardedBackend(compress.NewLZFast(), 0, 8, workers)
		defer b.Close()
		outs := mixedBatchOut(48)
		var o outcome
		for _, err := range b.SwapOutBatch(0, outs) {
			o.outErrs = append(o.outErrs, fmt.Sprint(err))
		}
		o.stats = b.Stats()
		// Drain the stored pages (the first 48 entries; the short page
		// and the duplicate were rejected).
		ids := make([]PageID, 48)
		for i := range ids {
			ids[i] = outs[i].ID
		}
		ins := makeBatchIn(ids)
		for _, err := range b.SwapInBatch(0, ins, false) {
			o.inErrs = append(o.inErrs, fmt.Sprint(err))
		}
		for _, p := range ins {
			o.pages = append(o.pages, p.Dst)
		}
		return o
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if fmt.Sprint(got.outErrs) != fmt.Sprint(want.outErrs) {
			t.Fatalf("workers=%d: swap-out errors diverge:\n%v\n%v", workers, got.outErrs, want.outErrs)
		}
		if fmt.Sprint(got.inErrs) != fmt.Sprint(want.inErrs) {
			t.Fatalf("workers=%d: swap-in errors diverge:\n%v\n%v", workers, got.inErrs, want.inErrs)
		}
		if got.stats != want.stats {
			t.Fatalf("workers=%d: stats diverge:\n%+v\n%+v", workers, got.stats, want.stats)
		}
		for i := range want.pages {
			if !bytes.Equal(got.pages[i], want.pages[i]) {
				t.Fatalf("workers=%d: page %d bytes diverge", workers, i)
			}
		}
	}
}

// TestBatchSkewedSingleShard routes every page of a batch to one shard
// — the pipeline's worst case and the scenario the old shard-granular
// fan-out degraded to serial on. Correctness and serial-equivalent
// stats must survive the skew.
func TestBatchSkewedSingleShard(t *testing.T) {
	const nShards = 8
	codec := compress.NewLZFast()
	sharded := NewShardedBackend(codec, 0, nShards, 4)
	defer sharded.Close()
	serial := NewCPUBackend(codec, 0)

	ids := idsOnShard0(64, nShards)
	outs := makeBatchOut(ids)
	if err := errors.Join(sharded.SwapOutBatch(0, outs)...); err != nil {
		t.Fatal(err)
	}
	if n := len(sharded.shards[0].b.index); n != len(ids) {
		t.Fatalf("shard 0 holds %d pages, want all %d", n, len(ids))
	}
	for _, p := range outs {
		if err := serial.SwapOut(0, p.ID, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	ss, ps := serial.Stats(), sharded.Stats()
	if ss.SwapOuts != ps.SwapOuts || ss.CompressedBytes != ps.CompressedBytes ||
		ss.StoredPages != ps.StoredPages || ss.CPUCycles != ps.CPUCycles {
		t.Fatalf("skewed stats diverge from serial:\nserial  %+v\nsharded %+v", ss, ps)
	}

	ins := makeBatchIn(ids)
	if err := errors.Join(sharded.SwapInBatch(0, ins, false)...); err != nil {
		t.Fatal(err)
	}
	for i, p := range ins {
		if !bytes.Equal(p.Dst, outs[i].Data) {
			t.Fatalf("page %d corrupted by skewed round trip", p.ID)
		}
	}
	if got := sharded.Stats().StoredPages; got != 0 {
		t.Fatalf("StoredPages = %d after draining, want 0", got)
	}
}

// idsOnShard0 returns the first n page ids that route to shard 0 of
// a backend with the given shard count.
func idsOnShard0(n, shards int) []PageID {
	ids := make([]PageID, 0, n)
	for id := PageID(0); len(ids) < n; id++ {
		if ShardIndexFor(id, shards) == 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// BenchmarkBatchSkewed times a 256-page lzfast batch round trip on a
// 16-shard backend, with the ids spread over every shard (uniform) and
// with every id on shard 0 (skewed). A shard-granular engine degrades
// to serial on the skewed case; the page-granular pipeline should stay
// within ~1.5x of uniform. Both cases move the same key-value bytes.
func BenchmarkBatchSkewed(b *testing.B) {
	const pages, shards = 256, 16
	uniform := make([]PageID, pages)
	for i := range uniform {
		uniform[i] = PageID(i)
	}
	for _, c := range []struct {
		name string
		ids  []PageID
	}{{"uniform", uniform}, {"skewed", idsOnShard0(pages, shards)}} {
		b.Run(c.name, func(b *testing.B) {
			outs := make([]PageOut, pages)
			ins := make([]PageIn, pages)
			for i, id := range c.ids {
				outs[i] = PageOut{ID: id, Data: corpus.KeyValue(int64(i), PageSize)}
				ins[i] = PageIn{ID: id, Dst: make([]byte, PageSize)}
			}
			be := NewShardedBackend(compress.NewLZFast(), 0, shards, 0)
			defer be.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := errors.Join(be.SwapOutBatch(0, outs)...); err != nil {
					b.Fatal(err)
				}
				if err := errors.Join(be.SwapInBatch(0, ins, false)...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBatchDecompressFailureLeavesStored corrupts a stored page's
// compressed bytes and checks the two-phase swap-in restores the
// entry (index + pin) on decompression failure — the page must remain
// stored and recoverable once the bytes are repaired, exactly as a
// failed serial SwapIn leaves it.
func TestBatchDecompressFailureLeavesStored(t *testing.T) {
	b := NewShardedBackend(compress.NewLZFast(), 0, 4, 2)
	defer b.Close()
	ids := []PageID{10, 11, 12, 13}
	outs := makeBatchOut(ids)
	if err := errors.Join(b.SwapOutBatch(0, outs)...); err != nil {
		t.Fatal(err)
	}

	// Corrupt page 11's slot in place (zeroed LZ stream: zero-length
	// header followed by trailing garbage, always rejected).
	victim := PageID(11)
	sh := &b.shards[ShardIndexFor(victim, len(b.shards))]
	e, ok := sh.b.index[victim]
	if !ok || !e.stored {
		t.Fatalf("victim page not stored compressed (ok=%v, stored=%v)", ok, e.stored)
	}
	raw, err := sh.b.alloc.Pin(e.handle)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), raw...)
	for i := range raw {
		raw[i] = 0
	}
	if err := sh.b.alloc.Unpin(e.handle); err != nil {
		t.Fatal(err)
	}

	ins := makeBatchIn(ids)
	errs := b.SwapInBatch(0, ins, false)
	for i, id := range ids {
		if id == victim {
			if errs[i] == nil {
				t.Fatal("corrupted page decompressed without error")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("healthy page %d failed: %v", id, errs[i])
		}
		if !bytes.Equal(ins[i].Dst, outs[i].Data) {
			t.Fatalf("healthy page %d corrupted", id)
		}
	}
	if !b.Contains(victim) {
		t.Fatal("failed page evicted from the index; must stay stored")
	}
	if got := b.Stats().StoredPages; got != 1 {
		t.Fatalf("StoredPages = %d, want 1 (the failed page)", got)
	}

	// Repair the bytes; the page must swap in cleanly, proving the
	// failure path restored both the index entry and the pin state
	// (compaction and Free would misbehave on a leaked pin).
	raw, err = sh.b.alloc.Pin(e.handle)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, saved)
	if err := sh.b.alloc.Unpin(e.handle); err != nil {
		t.Fatal(err)
	}
	b.Compact()
	dst := make([]byte, PageSize)
	if err := b.SwapIn(0, victim, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, randomPage(victim)) {
		t.Fatal("repaired page corrupted")
	}
}

// TestSwapInPinFailureLeavesStored points a page's index entry at a
// handle the allocator does not know, so gatherIn's Pin fails after
// the entry has already been taken out of the index: the entry must be
// back, unchanged, when SwapIn returns, and the page must swap in once
// the handle is repaired.
func TestSwapInPinFailureLeavesStored(t *testing.T) {
	b := NewCPUBackend(compress.NewLZFast(), 0)
	for id := PageID(1); id <= 3; id++ {
		if err := b.SwapOut(0, id, randomPage(id)); err != nil {
			t.Fatal(err)
		}
	}
	const victim = PageID(2)
	good := b.index[victim]
	bad := good
	bad.handle = ^good.handle
	b.index[victim] = bad

	dst := make([]byte, PageSize)
	if err := b.SwapIn(0, victim, dst, false); !errors.Is(err, zsmalloc.ErrInvalidHandle) {
		t.Fatalf("SwapIn with a dangling handle: %v, want ErrInvalidHandle", err)
	}
	if e, ok := b.index[victim]; !ok || e != bad {
		t.Fatalf("index entry after the failed swap-in = %+v, %v; want it back unchanged", e, ok)
	}
	if got := len(b.index); got != 3 {
		t.Fatalf("index holds %d entries, want 3", got)
	}
	if got := b.Stats().StoredPages; got != 3 {
		t.Fatalf("StoredPages = %d, want 3", got)
	}

	b.index[victim] = good
	if err := b.SwapIn(0, victim, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, randomPage(victim)) {
		t.Fatal("page corrupted by the failed swap-in")
	}
}

// TestBatchEngineConcurrentMix interleaves batch swaps, Compact, and
// Stats from many goroutines on one backend. Run with -race: it pins
// the pipeline's locking discipline (stage outside the lock, pinned
// slots vs. concurrent compaction, commit under the lock).
func TestBatchEngineConcurrentMix(t *testing.T) {
	b := NewShardedBackend(compress.NewLZFast(), 0, 8, 4)
	defer b.Close()
	const (
		goroutines = 6
		perG       = 48
		rounds     = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]PageID, perG)
			for i := range ids {
				ids[i] = PageID(g*10_000 + i)
			}
			for r := 0; r < rounds; r++ {
				outs := makeBatchOut(ids)
				if err := errors.Join(b.SwapOutBatch(0, outs)...); err != nil {
					t.Error(err)
					return
				}
				switch g % 3 {
				case 0:
					b.Compact()
				case 1:
					_ = b.Stats()
				}
				ins := makeBatchIn(ids)
				if err := errors.Join(b.SwapInBatch(0, ins, false)...); err != nil {
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
		t.Fatalf("StoredPages = %d after mix, want 0", got)
	}
}

// TestBatchRoundTripAllocs is the allocation regression gate for the
// batched hot path. The pipeline's pooled plans, worker arenas, the
// index map's reused buckets and zsmalloc's free lists keep a 256-page
// round trip to a handful of allocs/op; the ceiling here is
// deliberately loose (headroom for scheduler noise) but low enough
// that any per-page allocation (256+) fails immediately.
func TestBatchRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	const ceiling = 180
	for _, tc := range []struct {
		name string
		mk   func() Backend
	}{
		{"serial", func() Backend { return NewCPUBackend(compress.NewLZFast(), 0) }},
		{"sharded", func() Backend { return NewShardedBackend(compress.NewLZFast(), 0, 16, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mk()
			ids := make([]PageID, 256)
			for i := range ids {
				ids[i] = PageID(i)
			}
			outs := makeBatchOut(ids)
			ins := makeBatchIn(ids)
			// Warm up pools, arenas, and free lists.
			for i := 0; i < 3; i++ {
				if err := errors.Join(b.SwapOutBatch(0, outs)...); err != nil {
					t.Fatal(err)
				}
				if err := errors.Join(b.SwapInBatch(0, ins, false)...); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := errors.Join(b.SwapOutBatch(0, outs)...); err != nil {
					t.Fatal(err)
				}
				if err := errors.Join(b.SwapInBatch(0, ins, false)...); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > ceiling {
				t.Fatalf("%s batch round trip: %.0f allocs/op, ceiling %d", tc.name, allocs, ceiling)
			}
			t.Logf("%s batch round trip: %.0f allocs/op (ceiling %d)", tc.name, allocs, ceiling)
		})
	}
}
