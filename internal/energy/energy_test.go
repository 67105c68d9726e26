package energy

import (
	"math"
	"testing"

	"xfm/internal/dram"
	"xfm/internal/nma"
)

func TestDataMovementSavingMatchesPaper(t *testing.T) {
	// §4.3: on-DIMM data movement "cuts the overall data movement
	// energy by 69%".
	got := DataMovementSavingFraction()
	if math.Abs(got-0.69) > 0.01 {
		t.Errorf("data movement saving = %.3f, want ≈0.69", got)
	}
}

func TestConditionalAccessCheaperThanRandom(t *testing.T) {
	cond := NMAAccessEnergyNJ(4096, 2, true)
	rnd := NMAAccessEnergyNJ(4096, 2, false)
	if cond >= rnd {
		t.Errorf("conditional access (%.1f nJ) not cheaper than random (%.1f nJ)", cond, rnd)
	}
	if math.Abs((rnd-cond)-2*RowActPreNJ) > 1e-9 {
		t.Errorf("saving = %.2f nJ, want 2×ACT+PRE = %.2f", rnd-cond, 2*RowActPreNJ)
	}
}

func TestConditionalSavingNearPaperAverage(t *testing.T) {
	// §8: "the conditional accesses enable XFM to reduce the NMA access
	// energy by 10.1% across various promotion rates". With the
	// conditional fractions the scheduler achieves (~0.7-0.9), the
	// saving should bracket 10%.
	low := ConditionalSavingFraction(0.7, 4096, 2)
	high := ConditionalSavingFraction(0.9, 4096, 2)
	if low > 0.101 || high < 0.101 {
		t.Errorf("saving range [%.3f, %.3f] does not bracket 0.101", low, high)
	}
}

func TestConditionalSavingMonotone(t *testing.T) {
	prev := -1.0
	for f := 0.0; f <= 1.0; f += 0.1 {
		s := ConditionalSavingFraction(f, 4096, 2)
		if s < prev {
			t.Fatalf("saving not monotone at f=%.1f", f)
		}
		prev = s
	}
	if s := ConditionalSavingFraction(0, 4096, 2); s != 0 {
		t.Errorf("saving at f=0 is %.3f, want 0", s)
	}
}

func TestCPUPathCostsMoreThanNMAPath(t *testing.T) {
	cpu := CPUAccessEnergyNJ(4096, 2)
	nmaRand := NMAAccessEnergyNJ(4096, 2, false)
	if nmaRand >= cpu {
		t.Errorf("NMA random access (%.1f nJ) not cheaper than CPU access (%.1f nJ)", nmaRand, cpu)
	}
}

func TestTable2Constants(t *testing.T) {
	rows := Table2FPGAResources()
	if len(rows) != 3 {
		t.Fatalf("Table 2 has %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		pct := float64(r.Used) / float64(r.Total) * 100
		if math.Abs(pct-r.Percent) > 0.05 {
			t.Errorf("%s: computed %.2f%%, table says %.2f%%", r.Name, pct, r.Percent)
		}
	}
	if rows[0].Name != "LUTs" || rows[0].Percent != 83.30 {
		t.Errorf("LUT row wrong: %+v", rows[0])
	}
}

func TestTable3Consistency(t *testing.T) {
	p := Table3Power()
	if math.Abs(p.DynamicWatts+p.StaticWatts-p.TotalWatts) > 0.001 {
		t.Errorf("dynamic %.3f + static %.3f != total %.3f",
			p.DynamicWatts, p.StaticWatts, p.TotalWatts)
	}
	if math.Abs(p.DynamicPct+p.StaticPct-100) > 0.01 {
		t.Errorf("percentages do not sum to 100")
	}
	dynPct := p.DynamicWatts / p.TotalWatts * 100
	if math.Abs(dynPct-p.DynamicPct) > 0.6 {
		t.Errorf("dynamic share %.1f%%, table says %.0f%%", dynPct, p.DynamicPct)
	}
}

func TestBankModificationOverheadsSmall(t *testing.T) {
	o := BankModificationOverheads()
	if o.AreaFraction > 0.002 {
		t.Errorf("area overhead %.4f, paper reports ~0.15%%", o.AreaFraction)
	}
	if o.PowerFraction > 0.0001 {
		t.Errorf("power overhead %.6f, paper reports ~0.002%%", o.PowerFraction)
	}
}

func TestPrototypeOverprovisioned(t *testing.T) {
	// §8: the open-source Deflate accelerator (1.4/1.7 GB/s) is
	// overprovisioned because the guaranteed NMA bandwidth is < 1 GB/s.
	tm := dram.DDR5_3200()
	guaranteed := NMABandwidthGBps(1, 4096, tm.TREFI)
	if guaranteed >= 1.1 {
		t.Errorf("guaranteed NMA bandwidth = %.2f GB/s, want ≈1", guaranteed)
	}
	comp, decomp := OpenSourceDeflateGBps()
	if comp <= guaranteed {
		t.Errorf("compression engine (%.1f GB/s) not overprovisioned vs %.2f GB/s", comp, guaranteed)
	}
	if decomp <= comp {
		t.Error("decompression should be faster than compression")
	}
}

// TestAxDIMMPrototypeThroughput pins the §7 prototype numbers where the
// simulator reads them: the NMA's engine rates.
func TestAxDIMMPrototypeThroughput(t *testing.T) {
	comp, decomp := nma.CompressGBps, nma.DecompressGBps
	if comp != 14.8 || decomp != 17.2 {
		t.Errorf("prototype throughput = %.1f/%.1f, want 14.8/17.2 (§7)", comp, decomp)
	}
}

func TestPageTransferScalesLinearly(t *testing.T) {
	e1 := PageTransferNJ(1024, OnDIMMLinkPJPerBit)
	e4 := PageTransferNJ(4096, OnDIMMLinkPJPerBit)
	if math.Abs(e4-4*e1) > 1e-9 {
		t.Errorf("transfer energy not linear: %v vs 4×%v", e4, e1)
	}
}

// CPUAccessEnergyNJ returns the energy for the CPU path: the page
// crosses the DDR channel (and, for SFM, is read cold and written
// back, so callers typically double it).
func CPUAccessEnergyNJ(n int, banksTouched int) float64 {
	return PageTransferNJ(n, ChannelPJPerBit) + RowActPreNJ*float64(banksTouched)
}
