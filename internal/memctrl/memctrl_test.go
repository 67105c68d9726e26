package memctrl

import (
	"testing"
	"testing/quick"

	"xfm/internal/dram"
	"xfm/internal/telemetry"
)

func testMapping() Mapping {
	return SkylakeMapping(4, 2, dram.Device8Gb)
}

func TestMappingValidate(t *testing.T) {
	if err := testMapping().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testMapping()
	bad.ChannelInterleave = 100 // not a multiple of 128
	if err := bad.Validate(); err == nil {
		t.Error("invalid interleave accepted")
	}
}

func TestMappingCapacity(t *testing.T) {
	m := testMapping()
	// 8 Gb chip × 8 chips = 8 GiB per rank; 4 ch × 2 ranks = 64 GiB.
	if got := m.RankBytes(); got != 8<<30 {
		t.Errorf("RankBytes = %d, want %d", got, int64(8)<<30)
	}
	if got := m.TotalBytes(); got != 64<<30 {
		t.Errorf("TotalBytes = %d, want %d", got, int64(64)<<30)
	}
}

func TestDecomposeFieldsInRange(t *testing.T) {
	m := testMapping()
	f := func(raw uint64) bool {
		addr := int64(raw % uint64(m.TotalBytes()))
		c := m.Decompose(addr)
		return c.Channel >= 0 && c.Channel < m.Channels &&
			c.Rank >= 0 && c.Rank < m.RanksPerChannel &&
			c.Bank >= 0 && c.Bank < m.Device.BanksPerChip &&
			c.Row >= 0 && c.Row < m.Device.RowsPerBank &&
			c.Col >= 0 && c.Col < m.RowBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecomposeInjective: two distinct addresses never map to the same
// full coordinate + byte offset. We check it on a dense range, which
// exercises all interleave boundaries.
func TestDecomposeInjective(t *testing.T) {
	m := testMapping()
	seen := map[Coord]int64{}
	for addr := int64(0); addr < 64<<10; addr += int64(m.BankInterleave) {
		c := m.Decompose(addr)
		if prev, dup := seen[c]; dup {
			t.Fatalf("addresses %#x and %#x both map to %+v", prev, addr, c)
		}
		seen[c] = addr
	}
}

func TestChannelInterleaveGranularity(t *testing.T) {
	m := testMapping()
	// Consecutive 256 B blocks must rotate channels; bytes within a
	// 256 B block may split across banks but not channels.
	c0 := m.Decompose(0)
	c255 := m.Decompose(255)
	if c0.Channel != c255.Channel {
		t.Errorf("bytes 0 and 255 in different channels: %d vs %d", c0.Channel, c255.Channel)
	}
	c256 := m.Decompose(256)
	if c256.Channel == c0.Channel {
		t.Errorf("consecutive 256 B blocks share channel %d", c0.Channel)
	}
}

func TestBankInterleaveGranularity(t *testing.T) {
	m := testMapping()
	// Fig. 6a: consecutive 128 B chunks alternate between two banks.
	c0 := m.Decompose(0)
	c128 := m.Decompose(128)
	if c0.Bank == c128.Bank {
		t.Errorf("consecutive 128 B chunks share bank %d", c0.Bank)
	}
	if c0.Row != c128.Row {
		t.Errorf("bank-interleaved chunks land in different rows: %d vs %d", c0.Row, c128.Row)
	}
}

func TestPageCoordsShape(t *testing.T) {
	m := testMapping()
	// A 4 KiB page: 4 channels × 2 banks, one row per (channel, bank).
	coords := m.PageCoords(0, 4096)
	if len(coords) != 8 {
		t.Fatalf("4 KiB page touches %d (ch,rank,bank,row) tuples, want 8", len(coords))
	}
	perChannel := map[int]int{}
	for _, c := range coords {
		perChannel[c.Channel]++
	}
	if len(perChannel) != 4 {
		t.Errorf("page spread over %d channels, want 4", len(perChannel))
	}
	for ch, n := range perChannel {
		if n != 2 {
			t.Errorf("channel %d holds %d banks of the page, want 2", ch, n)
		}
	}
}

func TestPageCoordsSingleChannel(t *testing.T) {
	m := SkylakeMapping(1, 1, dram.Device8Gb)
	coords := m.PageCoords(0, 4096)
	// Fig. 6a single-channel: the page lives in one rank, two banks.
	if len(coords) != 2 {
		t.Fatalf("single-channel 4 KiB page touches %d tuples, want 2", len(coords))
	}
	if coords[0].Row != coords[1].Row {
		t.Errorf("page rows differ across banks: %d vs %d", coords[0].Row, coords[1].Row)
	}
}

func TestDecomposePanicsOutOfRange(t *testing.T) {
	m := testMapping()
	for _, addr := range []int64{-1, m.TotalBytes()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Decompose(%#x) did not panic", addr)
				}
			}()
			m.Decompose(addr)
		}()
	}
}

func TestControllerSubmitAccounting(t *testing.T) {
	recorded := telemetry.MemctrlRequests.Value()
	ctl := NewController(testMapping(), dram.DDR5_3200())
	done := ctl.Submit(Request{Addr: 0, Size: 4096, Kind: dram.Read, Stream: 1, At: 0})
	if done <= 0 {
		t.Fatal("completion time not positive")
	}
	ctl.Submit(Request{Addr: 1 << 20, Size: 256, Kind: dram.Write, Stream: 2, At: done})
	if got := telemetry.MemctrlRequests.Value() - recorded; got != 2 {
		t.Errorf("memctrl_requests_total moved by %d over a read and a write, want 2", got)
	}
	st := ctl.Stream(1)
	if st.Requests != 1 || st.Bytes != 4096 {
		t.Errorf("stream stats = %+v", st)
	}
	if st.RowAccesses != 4096/128 {
		t.Errorf("row accesses = %d, want 32", st.RowAccesses)
	}
	read, written := ctl.TotalBytes()
	if read != 4096 || written != 256 {
		t.Errorf("bytes = %d read, %d written; want 4096/256", read, written)
	}
}

func TestControllerParallelChannelsFasterThanOne(t *testing.T) {
	t4 := NewController(SkylakeMapping(4, 1, dram.Device8Gb), dram.DDR5_3200())
	t1 := NewController(SkylakeMapping(1, 1, dram.Device8Gb), dram.DDR5_3200())
	done4 := t4.Submit(Request{Addr: 0, Size: 64 << 10, Kind: dram.Read})
	done1 := t1.Submit(Request{Addr: 0, Size: 64 << 10, Kind: dram.Read})
	if done4 >= done1 {
		t.Errorf("4-channel read (%d ps) not faster than 1-channel (%d ps)", done4, done1)
	}
}

func TestControllerBusSerialization(t *testing.T) {
	ctl := NewController(SkylakeMapping(1, 1, dram.Device8Gb), dram.DDR5_3200())
	// Open-loop saturation: offer requests faster than the bus can
	// drain them. Utilization must approach but never exceed 1.
	tm := dram.DDR5_3200()
	var last dram.Ps
	for i := 0; i < 2000; i++ {
		at := dram.Ps(i) * tm.TBurst // offered rate ≥ service rate
		done := ctl.Submit(Request{Addr: int64(i%1024) * 128, Size: 128, Kind: dram.Read, At: at})
		if done > last {
			last = done
		}
	}
	util := ctl.Channel(0).BusUtilization(last)
	if util > 1.0 {
		t.Errorf("bus utilization %.3f exceeds 1", util)
	}
	if util < 0.7 {
		t.Errorf("saturating stream achieved only %.3f utilization", util)
	}
}

func TestStreamLatencyStats(t *testing.T) {
	ctl := NewController(testMapping(), dram.DDR5_3200())
	ctl.Submit(Request{Addr: 0, Size: 128, Kind: dram.Read, Stream: 7, At: 0})
	st := ctl.Stream(7)
	if st.MeanLatencyNs() <= 0 {
		t.Error("mean latency not positive")
	}
	if st.MaxLatPs < dram.Ps(st.MeanLatencyNs()*float64(dram.Nanosecond)) {
		t.Error("max latency below mean")
	}
	if ctl.Stream(99).Requests != 0 {
		t.Error("unknown stream should have zero stats")
	}
}

func TestBandwidthGBps(t *testing.T) {
	// 1 GB over 1 s = 1 GB/s.
	if got := BandwidthGBps(1e9, dram.Second); got != 1 {
		t.Errorf("BandwidthGBps = %v, want 1", got)
	}
	if got := BandwidthGBps(100, 0); got != 0 {
		t.Errorf("zero horizon should yield 0, got %v", got)
	}
}

func BenchmarkControllerSubmit4K(b *testing.B) {
	ctl := NewController(testMapping(), dram.DDR5_3200())
	var now dram.Ps
	for i := 0; i < b.N; i++ {
		now = ctl.Submit(Request{Addr: int64(i%4096) * 4096, Size: 4096, Kind: dram.Read, At: now})
	}
}

func TestXORBankHashStaysInjective(t *testing.T) {
	m := testMapping()
	m.XORBankHash = true
	seen := map[Coord]int64{}
	for addr := int64(0); addr < 1<<22; addr += int64(m.BankInterleave) {
		c := m.Decompose(addr)
		if c.Bank < 0 || c.Bank >= m.Device.BanksPerChip {
			t.Fatalf("bank %d out of range", c.Bank)
		}
		if prev, dup := seen[c]; dup {
			t.Fatalf("addresses %#x and %#x collide at %+v", prev, addr, c)
		}
		seen[c] = addr
	}
}

func TestXORBankHashSpreadsRowStrides(t *testing.T) {
	// A stream striding by exactly one row-pair (the row-buffer-hostile
	// pattern) camps on one bank pair without hashing, but spreads
	// across bank groups with it.
	plain := testMapping()
	hashed := testMapping()
	hashed.XORBankHash = true
	stride := int64(plain.RowBytes()) * 2 * int64(plain.Channels) // +1 row, same bank/channel path
	banksSeen := func(m Mapping) int {
		set := map[int]bool{}
		for i := int64(0); i < 64; i++ {
			set[m.Decompose(i*stride).Bank] = true
		}
		return len(set)
	}
	p, h := banksSeen(plain), banksSeen(hashed)
	if h <= p {
		t.Errorf("XOR hash banks = %d, plain = %d; hashing should spread strides", h, p)
	}
}

// PageCoords returns the distinct (channel, rank, bank, row) tuples a
// physically contiguous region [addr, addr+size) touches: how the
// tests below look at the rows a 4 KiB page occupies.
func (m Mapping) PageCoords(addr int64, size int) []Coord {
	seen := map[Coord]bool{}
	var out []Coord
	for off := int64(0); off < int64(size); off += int64(m.BankInterleave) {
		c := m.Decompose(addr + off)
		key := Coord{Channel: c.Channel, Rank: c.Rank, Bank: c.Bank, Row: c.Row}
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}
