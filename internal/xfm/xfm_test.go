package xfm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

func newTestBackend(t *testing.T) *Backend {
	t.Helper()
	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	d := NewDriver(sim)
	m := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
	b, err := NewBackend(compress.NewLZFast(), 1<<30, d, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func page(fill byte) []byte {
	p := make([]byte, sfm.PageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestDriverParamset(t *testing.T) {
	d := NewDriver(nma.NewSim(nma.DefaultConfig(dram.Device32Gb)))
	if _, err := d.Submit(nma.Request{}); err == nil {
		t.Error("Submit before Paramset succeeded")
	}
	if err := d.Paramset(0, -1); err == nil {
		t.Error("negative size accepted")
	}
	if err := d.Paramset(-1, 100); err == nil {
		t.Error("negative base accepted")
	}
	if err := d.Paramset(4096, 1<<20); err != nil {
		t.Fatal(err)
	}
	base, size := d.Region()
	if base != 4096 || size != 1<<20 {
		t.Errorf("region = (%d,%d)", base, size)
	}
	_, writes, ioctls := d.MMIOStats()
	if writes != 2 || ioctls != 1 {
		t.Errorf("MMIO writes=%d ioctls=%d, want 2/1", writes, ioctls)
	}
}

func TestDriverSPCapacityCountsMMIO(t *testing.T) {
	d := NewDriver(nma.NewSim(nma.DefaultConfig(dram.Device32Gb)))
	free := d.SPCapacity()
	if free != 2<<20 {
		t.Errorf("empty SPM free = %d, want 2 MiB", free)
	}
	reads, _, _ := d.MMIOStats()
	if reads != 1 {
		t.Errorf("MMIO reads = %d, want 1", reads)
	}
}

func TestBackendSwapOutInRoundTrip(t *testing.T) {
	b := newTestBackend(t)
	in := page('Q')
	if err := b.SwapOut(0, 1, in); err != nil {
		t.Fatal(err)
	}
	if !b.Contains(1) {
		t.Fatal("page not stored")
	}
	dst := make([]byte, sfm.PageSize)
	if err := b.SwapIn(dram.Millisecond, 1, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, in) {
		t.Fatal("round trip corrupted data")
	}
}

func TestBackendOffloadsSwapOuts(t *testing.T) {
	b := newTestBackend(t)
	for i := 0; i < 10; i++ {
		if err := b.SwapOut(dram.Ps(i)*dram.Microsecond, sfm.PageID(i+1), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Offloads != 10 {
		t.Errorf("offloads = %d, want 10", st.Offloads)
	}
	if st.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 at idle", st.Fallbacks)
	}
	if st.CPUCycles != 0 {
		t.Errorf("CPU cycles charged for offloaded work: %v", st.CPUCycles)
	}
}

func TestBackendDemandSwapInUsesCPU(t *testing.T) {
	b := newTestBackend(t)
	b.SwapOut(0, 1, page('x'))
	dst := make([]byte, sfm.PageSize)
	if err := b.SwapIn(dram.Second, 1, dst, false); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	// The swap-out offloaded; the demand swap-in fell back to CPU.
	if st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1 (demand swap-in)", st.Fallbacks)
	}
	if st.CPUCycles <= 0 {
		t.Error("demand swap-in charged no CPU cycles")
	}
}

func TestBackendPrefetchSwapInOffloads(t *testing.T) {
	b := newTestBackend(t)
	b.SwapOut(0, 1, page('x'))
	dst := make([]byte, sfm.PageSize)
	if err := b.SwapIn(dram.Second, 1, dst, true); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Offloads != 2 {
		t.Errorf("offloads = %d, want 2 (swap-out + prefetch)", st.Offloads)
	}
}

func TestBackendFallsBackWhenQueueFull(t *testing.T) {
	cfg := nma.DefaultConfig(dram.Device32Gb)
	cfg.QueueDepth = 2
	sim := nma.NewSim(cfg)
	d := NewDriver(sim)
	m := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
	b, err := NewBackend(compress.NewLZFast(), 1<<30, d, m)
	if err != nil {
		t.Fatal(err)
	}
	// Submit many swap-outs at the same instant: the queue (depth 2)
	// overflows and the rest run on the CPU.
	for i := 0; i < 10; i++ {
		if err := b.SwapOut(0, sfm.PageID(i+1), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Offloads != 2 {
		t.Errorf("offloads = %d, want 2", st.Offloads)
	}
	if st.Fallbacks != 8 {
		t.Errorf("fallbacks = %d, want 8", st.Fallbacks)
	}
	if st.CPUCycles <= 0 {
		t.Error("fallback work charged no CPU cycles")
	}
}

func TestBackendAdvancesNMATime(t *testing.T) {
	b := newTestBackend(t)
	b.SwapOut(0, 1, page('a'))
	// A swap-out far in the future forces the driver to step windows,
	// completing the earlier offload.
	b.SwapOut(dram.Second, 2, page('b'))
	if got := b.Driver().NMAStats().Completed; got < 1 {
		t.Errorf("completed offloads = %d, want ≥ 1 after 1 s", got)
	}
}

func TestSplitGatherInverse(t *testing.T) {
	for _, dimms := range []int{1, 2, 4} {
		l := DefaultLayout(dimms)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			pg := make([]byte, 4096)
			rng.Read(pg)
			parts := l.Split(pg)
			if len(parts) != dimms {
				return false
			}
			return bytes.Equal(l.Gather(parts), pg)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%d DIMMs: %v", dimms, err)
		}
	}
}

func TestSplitChunkAssignment(t *testing.T) {
	l := DefaultLayout(2)
	pg := make([]byte, 1024)
	for i := range pg {
		pg[i] = byte(i / 256) // chunk index
	}
	parts := l.Split(pg)
	// Chunks 0,2 → DIMM 0; chunks 1,3 → DIMM 1.
	if parts[0][0] != 0 || parts[0][256] != 2 {
		t.Errorf("DIMM 0 got chunks %d,%d; want 0,2", parts[0][0], parts[0][256])
	}
	if parts[1][0] != 1 || parts[1][256] != 3 {
		t.Errorf("DIMM 1 got chunks %d,%d; want 1,3", parts[1][0], parts[1][256])
	}
}

func TestWindowShrinksWithDIMMs(t *testing.T) {
	if w := DefaultLayout(1).WindowBytes(4096); w != 4096 {
		t.Errorf("1-DIMM window = %d, want 4096", w)
	}
	if w := DefaultLayout(2).WindowBytes(4096); w != 2048 {
		t.Errorf("2-DIMM window = %d, want 2048", w)
	}
	if w := DefaultLayout(4).WindowBytes(4096); w != 1024 {
		t.Errorf("4-DIMM window = %d, want 1024 (§6)", w)
	}
}

func TestCompressPageRoundTrip(t *testing.T) {
	newCodec := func(w int) compress.Codec { return compress.NewXDeflateWindow(w) }
	rng := rand.New(rand.NewSource(8))
	pg := make([]byte, 4096)
	for i := range pg {
		pg[i] = byte(rng.Intn(16))
	}
	for _, dimms := range []int{1, 2, 4} {
		l := DefaultLayout(dimms)
		cl := l.CompressPage(pg, newCodec)
		out, err := l.DecompressPage(cl, newCodec, 4096)
		if err != nil {
			t.Fatalf("%d DIMMs: %v", dimms, err)
		}
		if !bytes.Equal(out, pg) {
			t.Fatalf("%d DIMMs: round trip mismatch", dimms)
		}
		if cl.TotalReserved() < cl.TotalStored() {
			t.Errorf("%d DIMMs: reserved %d < stored %d", dimms, cl.TotalReserved(), cl.TotalStored())
		}
		if cl.FragmentationBytes() < 0 {
			t.Errorf("%d DIMMs: negative fragmentation", dimms)
		}
	}
}

func TestMultiChannelRatioDegradesGracefully(t *testing.T) {
	// Fig. 8: interleaved multi-DIMM compression keeps most of the
	// in-order *space savings* (the paper measures 86.2% retained on
	// average for 4 DIMMs). Check savings retention ≥ 75% on
	// structured data.
	pg := bytes.Repeat([]byte("log: user=alice action=GET path=/idx code=200\n"), 90)[:4096]
	newCodec := func(w int) compress.Codec { return compress.NewXDeflateWindow(w) }
	r1 := DefaultLayout(1).CompressPage(pg, newCodec).TotalReserved()
	r4 := DefaultLayout(4).CompressPage(pg, newCodec).TotalReserved()
	sav1 := 1 - float64(r1)/float64(len(pg))
	sav4 := 1 - float64(r4)/float64(len(pg))
	if sav1 <= 0 {
		t.Fatalf("1-DIMM config did not compress: reserved %d", r1)
	}
	if retention := sav4 / sav1; retention < 0.75 {
		t.Errorf("4-DIMM retains %.1f%% of 1-DIMM savings (reserved %d vs %d), want ≥ 75%%",
			retention*100, r4, r1)
	}
}

func TestLayoutValidate(t *testing.T) {
	if err := (MultiChannelLayout{DIMMs: 0, InterleaveBytes: 256}).Validate(); err == nil {
		t.Error("0 DIMMs accepted")
	}
	if err := (MultiChannelLayout{DIMMs: 2, InterleaveBytes: 0}).Validate(); err == nil {
		t.Error("0 interleave accepted")
	}
	if err := DefaultLayout(4).Validate(); err != nil {
		t.Error(err)
	}
}

func TestGatherPanicsOnWrongPartCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gather with wrong part count did not panic")
		}
	}()
	DefaultLayout(2).Gather([][]byte{{1}})
}

func BenchmarkBackendSwapOut(b *testing.B) {
	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	d := NewDriver(sim)
	m := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
	back, err := NewBackend(compress.NewLZFast(), 1<<30, d, m)
	if err != nil {
		b.Fatal(err)
	}
	pg := page('b')
	dst := make([]byte, sfm.PageSize)
	for i := 0; i < b.N; i++ {
		id := sfm.PageID(i + 1)
		now := dram.Ps(i) * dram.Microsecond
		if err := back.SwapOut(now, id, pg); err != nil {
			b.Fatal(err)
		}
		if err := back.SwapIn(now, id, dst, false); err != nil {
			b.Fatal(err)
		}
	}
}

func TestECCParityPath(t *testing.T) {
	b := newTestBackend(t)
	in := page('e')
	if err := b.SwapOut(0, 1, in); err != nil {
		t.Fatal(err)
	}
	pb, corrected, bad := b.ECCStats()
	if pb != 512 {
		t.Errorf("parity bytes = %d, want 512 per 4 KiB page", pb)
	}
	dst := make([]byte, sfm.PageSize)
	if err := b.SwapIn(dram.Millisecond, 1, dst, false); err != nil {
		t.Fatal(err)
	}
	_, corrected, bad = b.ECCStats()
	if corrected != 0 || bad != 0 {
		t.Errorf("clean round trip reported corrected=%d bad=%d", corrected, bad)
	}
	if !bytes.Equal(dst, in) {
		t.Fatal("content corrupted")
	}
}

func TestECCDisabled(t *testing.T) {
	b := newTestBackend(t)
	b.SetECC(false)
	b.SwapOut(0, 1, page('x'))
	if pb, _, _ := b.ECCStats(); pb != 0 {
		t.Errorf("parity generated while ECC disabled: %d bytes", pb)
	}
}

func TestLazySPMTrackingSyncsOnlyAtBound(t *testing.T) {
	cfg := nma.DefaultConfig(dram.Device32Gb)
	cfg.SPMBytes = 16 * cfg.PageBytes // bound reached after 15 submissions
	sim := nma.NewSim(cfg)
	d := NewDriver(sim)
	b, err := NewBackend(compress.NewLZFast(), 1<<30, d,
		memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
	if err != nil {
		t.Fatal(err)
	}
	// Ten offloads: bound (10+1)×4K < 64K, so no MMIO occupancy reads.
	for i := 0; i < 10; i++ {
		if err := b.SwapOut(dram.Ps(i)*dram.Microsecond, sfm.PageID(i+1), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if b.SPMSyncs() != 0 {
		t.Errorf("syncs = %d before the inferred bound filled, want 0", b.SPMSyncs())
	}
	// Eight more crosses the inferred bound (outstanding+1 > 16):
	// at least one poll happens.
	for i := 10; i < 18; i++ {
		if err := b.SwapOut(dram.Ps(i)*dram.Microsecond, sfm.PageID(i+1), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if b.SPMSyncs() == 0 {
		t.Error("no occupancy sync despite crossing the inferred bound")
	}
}

// SPCapacity reads the SP_Capacity_Register: the free bytes in the
// ScratchPad Memory. The read is an MMIO round trip, so callers track
// occupancy lazily and only sync when their inferred bound hits zero
// (§6).
func (d *Driver) SPCapacity() int {
	d.mmioRead()
	return d.sim.Config().SPMBytes - d.sim.SPMUsed()
}

// Split partitions a page into per-DIMM buffers: chunk i of the page
// (InterleaveBytes long) goes to DIMM (i mod DIMMs), preserving chunk
// order within each DIMM (the reordered data of Fig. 9b).
func (l MultiChannelLayout) Split(page []byte) [][]byte {
	parts := make([][]byte, l.DIMMs)
	for i := range parts {
		parts[i] = make([]byte, 0, len(page)/l.DIMMs+l.InterleaveBytes)
	}
	return l.SplitInto(parts, page)
}

// Gather reassembles a page from per-DIMM buffers produced by Split.
// It is the inverse of Split for any page whose length is a multiple
// of InterleaveBytes.
func (l MultiChannelLayout) Gather(parts [][]byte) []byte {
	var total int
	for _, p := range parts {
		total += len(p)
	}
	return l.GatherInto(make([]byte, 0, total), parts)
}

// GatherInto reassembles a page from per-DIMM buffers produced by
// SplitInto, appending into page (typically a reused buffer resliced to
// length 0). It is the inverse of SplitInto for any page whose length
// is a multiple of InterleaveBytes.
func (l MultiChannelLayout) GatherInto(page []byte, parts [][]byte) []byte {
	if len(parts) != l.DIMMs {
		panic(fmt.Sprintf("xfm: Gather got %d parts, layout has %d DIMMs", len(parts), l.DIMMs))
	}
	// Real layouts interleave over 1-4 DIMMs; keep the cursor array on
	// the stack so GatherInto stays allocation-free.
	var offbuf [8]int
	var offsets []int
	if l.DIMMs <= len(offbuf) {
		offsets = offbuf[:l.DIMMs]
	} else {
		offsets = make([]int, l.DIMMs)
	}
	for i := 0; ; i++ {
		d := i % l.DIMMs
		off := offsets[d]
		if off >= len(parts[d]) {
			break
		}
		end := off + l.InterleaveBytes
		if end > len(parts[d]) {
			end = len(parts[d])
		}
		page = append(page, parts[d][off:end]...)
		offsets[d] = end
	}
	return page
}

// TotalStored returns the actual compressed payload bytes.
func (c CompressedLayout) TotalStored() int {
	n := 0
	for _, p := range c.Parts {
		n += len(p)
	}
	return n
}

// FragmentationBytes returns the internal fragmentation the
// same-offset placement costs.
func (c CompressedLayout) FragmentationBytes() int {
	return c.TotalReserved() - c.TotalStored()
}

// DecompressPage reverses CompressPage.
func (l MultiChannelLayout) DecompressPage(c CompressedLayout, newCodec func(window int) compress.Codec, pageBytes int) ([]byte, error) {
	return l.DecompressPageInto(make([]byte, 0, pageBytes), c, newCodec, pageBytes)
}

// DecompressPageInto reverses CompressPage, appending the reassembled
// page into dst (typically a reused buffer resliced to length 0). The
// per-DIMM decompressed parts are staged in pooled scratch, so the
// only allocation on a warmed path is dst's own growth.
func (l MultiChannelLayout) DecompressPageInto(dst []byte, c CompressedLayout, newCodec func(window int) compress.Codec, pageBytes int) ([]byte, error) {
	codec := newCodec(l.WindowBytes(pageBytes))
	s := compress.GetScratch()
	defer s.Release()
	parts := s.Parts(len(c.Parts))
	for i, p := range c.Parts {
		out, err := codec.Decompress(parts[i], p)
		if err != nil {
			return dst, err
		}
		parts[i] = out
	}
	if len(parts) != l.DIMMs {
		return dst, fmt.Errorf("xfm: layout has %d DIMMs, compressed page has %d parts", l.DIMMs, len(parts))
	}
	return l.GatherInto(dst, parts), nil
}
