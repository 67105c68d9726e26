// Package energy models the data-movement and access energy of XFM
// (§4.3, §8) and carries the FPGA resource/power constants of
// Tables 2 and 3. Hardware synthesis cannot be reproduced in software;
// the reported constants are embedded and the derived quantities (the
// 69% data-movement saving, the 10.1% conditional-access saving) are
// computed from first principles so the relationships can be tested.
package energy

// Link energies in picojoules per bit.
const (
	// OnDIMMLinkPJPerBit is the on-PCB serial link energy between the
	// data buffers and the RCD (Wilson et al., cited in §4.1):
	// 1.17 pJ/bit.
	OnDIMMLinkPJPerBit = 1.17
	// ChannelPJPerBit is the DDR channel energy from DRAM to CPU.
	// §4.3: moving data on-DIMM instead "cuts the overall data
	// movement energy by 69%", which pins the channel at
	// 1.17 / 0.31 ≈ 3.77 pJ/bit.
	ChannelPJPerBit = 3.774
)

// RowActPreNJ is the energy of one ACT+PRE pair in nanojoules.
// Calibrated so that the activation share of a 4 KiB NMA page access
// reproduces the paper's 10.1% average conditional-access saving at
// the observed conditional fractions (§8).
const RowActPreNJ = 2.7

// DataMovementSavingFraction returns the fraction of data-movement
// energy saved by moving data over the on-DIMM link instead of the
// DDR channel (§4.3 reports 69%).
func DataMovementSavingFraction() float64 {
	return 1 - OnDIMMLinkPJPerBit/ChannelPJPerBit
}

// PageTransferNJ returns the energy to move one page of n bytes over
// a link with the given pJ/bit cost.
func PageTransferNJ(n int, pjPerBit float64) float64 {
	return float64(n) * 8 * pjPerBit / 1000
}

// NMAAccessEnergyNJ returns the energy of one NMA page access of n
// bytes. A random access activates and precharges the page's rows
// itself (banksTouched ACT+PRE pairs); a conditional access rides the
// activation the refresh already performs and pays only the data
// movement (§5: "less access energy is used since NMA accesses do not
// need to activate a page").
func NMAAccessEnergyNJ(n int, banksTouched int, conditional bool) float64 {
	e := PageTransferNJ(n, OnDIMMLinkPJPerBit)
	if !conditional {
		e += RowActPreNJ * float64(banksTouched)
	}
	return e
}

// ConditionalSavingFraction returns the average NMA access-energy
// saving when a fraction f of accesses is conditional, for n-byte
// pages interleaved over banksTouched banks. The paper reports 10.1%
// on average across promotion rates and DRAM configurations (§8).
func ConditionalSavingFraction(f float64, n, banksTouched int) float64 {
	random := NMAAccessEnergyNJ(n, banksTouched, false)
	mixed := f*NMAAccessEnergyNJ(n, banksTouched, true) + (1-f)*random
	return 1 - mixed/random
}

// FPGAResource is one row of Table 2.
type FPGAResource struct {
	Name    string
	Used    int
	Total   int
	Percent float64
}

// Table2FPGAResources returns the FPGA resource utilization of the
// XFM prototype (Table 2, Xilinx UltraScale+ on Samsung AxDIMM).
func Table2FPGAResources() []FPGAResource {
	return []FPGAResource{
		{Name: "LUTs", Used: 435467, Total: 522720, Percent: 83.30},
		{Name: "FFs", Used: 94135, Total: 1045440, Percent: 9.00},
		{Name: "BRAM", Used: 51, Total: 984, Percent: 5.18},
	}
}

// PowerBreakdown is Table 3: the prototype's power consumption.
type PowerBreakdown struct {
	TotalWatts   float64
	DynamicWatts float64
	DynamicPct   float64
	StaticWatts  float64
	StaticPct    float64
}

// Table3Power returns the power breakdown of the XFM FPGA
// implementation (Table 3).
func Table3Power() PowerBreakdown {
	return PowerBreakdown{
		TotalWatts:   7.024,
		DynamicWatts: 5.718,
		DynamicPct:   81,
		StaticWatts:  1.306,
		StaticPct:    19,
	}
}

// DRAMOverheads holds the CACTI-modeled cost of the Fig. 7 bank
// modifications (§8: "~0.15% area and ~0.002% power overhead" for an
// 8 Gb DDR4 chip in 22 nm).
type DRAMOverheads struct {
	AreaFraction  float64
	PowerFraction float64
}

// BankModificationOverheads returns the modeled DRAM bank overheads.
func BankModificationOverheads() DRAMOverheads {
	return DRAMOverheads{AreaFraction: 0.0015, PowerFraction: 0.00002}
}

// OpenSourceDeflateGBps returns the FPGA Deflate accelerator
// throughput from Table 2's discussion (§8): 1.4 GB/s compression and
// 1.7 GB/s decompression — "highly overprovisioned for XFM" because
// the NMA's refresh-window DRAM bandwidth is under 1 GB/s.
func OpenSourceDeflateGBps() (comp, decomp float64) { return 1.4, 1.7 }

// NMABandwidthGBps returns the DRAM bandwidth the NMA obtains from
// refresh windows when it moves pagesPerWindow pages of pageBytes each
// tREFI. The *guaranteed* bandwidth uses one page per window (the
// random-access slot, §7), which for 4 KiB pages at tREFI = 3.9 µs is
// ≈1 GB/s — the paper's "theoretical memory bandwidth available to
// the NMA is less than 1 GBps" (§8). Conditional accesses add
// opportunistic capacity on top when queued requests match the
// refresh schedule.
func NMABandwidthGBps(pagesPerWindow, pageBytes int, treFIPs int64) float64 {
	bytesPerWindow := float64(pagesPerWindow * pageBytes)
	windowsPerSec := 1e12 / float64(treFIPs)
	return bytesPerWindow * windowsPerSec / 1e9
}
