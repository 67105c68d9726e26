package experiments

import (
	"fmt"

	"xfm/internal/dram"
	"xfm/internal/energy"
	"xfm/internal/stats"
)

// Table1 renders the DDR5 device configuration table the simulator's
// device models embody (Table 1 of the paper).
func Table1() *stats.Table {
	t := stats.NewTable("Table 1 — DDR5 device configurations",
		"Device", "8Gb", "16Gb", "32Gb")
	devs := dram.Table1Devices()
	row := func(name string, f func(d dram.DeviceConfig) string) {
		cells := []string{name}
		for _, d := range devs {
			cells = append(cells, f(d))
		}
		t.AddRow(cells...)
	}
	row("#Rows per bank", func(d dram.DeviceConfig) string {
		return fmt.Sprintf("%dK", d.RowsPerBank>>10)
	})
	row("#Banks per chip", func(d dram.DeviceConfig) string {
		return fmt.Sprintf("%d", d.BanksPerChip)
	})
	row("tRFC all-bank (ns)", func(d dram.DeviceConfig) string {
		return fmt.Sprintf("%d", d.TRFC/dram.Nanosecond)
	})
	row("#Rows of a bank ref per tRFC", func(d dram.DeviceConfig) string {
		return fmt.Sprintf("%d", d.RowsPerBankPerREF)
	})
	row("#Subarrays per bank", func(d dram.DeviceConfig) string {
		return fmt.Sprintf("%d", d.SubarraysPerBank)
	})
	row("max 4KiB conditional accesses/tRFC", func(d dram.DeviceConfig) string {
		return fmt.Sprintf("%d", dram.DeriveConditionalBudget(d))
	})
	return t
}

// Table2 renders the FPGA resource utilization of the prototype.
func Table2() *stats.Table {
	t := stats.NewTable("Table 2 — FPGA resource utilization of XFM (AxDIMM UltraScale+)",
		"Resource", "Used", "Total", "Percent")
	for _, r := range energy.Table2FPGAResources() {
		t.AddRow(r.Name, fmt.Sprintf("%d", r.Used), fmt.Sprintf("%d", r.Total),
			fmt.Sprintf("%.2f%%", r.Percent))
	}
	comp, decomp := energy.OpenSourceDeflateGBps()
	t.AddRow("", "", "", "")
	t.AddRow("Deflate engine", fmt.Sprintf("%.1f GB/s comp", comp),
		fmt.Sprintf("%.1f GB/s decomp", decomp), "overprovisioned")
	return t
}

// Table3 renders the power consumption breakdown.
func Table3() *stats.Table {
	p := energy.Table3Power()
	t := stats.NewTable("Table 3 — power consumption breakdown of XFM",
		"Power consumption", "Dynamic", "%", "Static", "%")
	t.AddRow(fmt.Sprintf("Total = %.3f Watts", p.TotalWatts),
		fmt.Sprintf("%.3f", p.DynamicWatts), fmt.Sprintf("%.0f", p.DynamicPct),
		fmt.Sprintf("%.3f", p.StaticWatts), fmt.Sprintf("%.0f", p.StaticPct))
	o := energy.BankModificationOverheads()
	t.AddRow("", "", "", "", "")
	t.AddRow("DRAM bank mods (CACTI)",
		fmt.Sprintf("area +%.2f%%", o.AreaFraction*100), "",
		fmt.Sprintf("power +%.3f%%", o.PowerFraction*100), "")
	return t
}
