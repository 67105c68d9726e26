// Command costmodel explores the §3 first-order DFM-vs-SFM cost and
// carbon model (EQ1–EQ5) from the command line.
//
// Usage:
//
//	costmodel [-capacity GB] [-promotion frac] [-years N] [-step Y]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"xfm/internal/costmodel"
	"xfm/internal/stats"
)

// maxRows bounds the year sweep's table.
const maxRows = 10000

func main() {
	capacity := flag.Float64("capacity", 512, "far memory capacity in GB")
	promotion := flag.Float64("promotion", 0.20, "promotion rate (fraction of far memory accessed per minute)")
	years := flag.Float64("years", 10, "horizon in years")
	step := flag.Float64("step", 1, "sweep step in years")
	sens := flag.Bool("sensitivity", false, "print a ±20%% parameter sensitivity (tornado) table and exit")
	flag.Parse()

	p := costmodel.DefaultParams()
	p.ExtraGB = *capacity
	p.PromotionRate = *promotion
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The year sweep below must end: a finite horizon and a step that
	// reaches it within maxRows rows.
	if math.IsNaN(*years) || math.IsInf(*years, 0) || *years < 0 {
		fmt.Fprintf(os.Stderr, "costmodel: -years %v must be finite and non-negative\n", *years)
		os.Exit(2)
	}
	if math.IsNaN(*step) || math.IsInf(*step, 0) || *step <= 0 || *years / *step > maxRows {
		fmt.Fprintf(os.Stderr, "costmodel: -step %v must be finite, positive and at least -years/%d\n", *step, maxRows)
		os.Exit(2)
	}

	if *sens {
		t := stats.NewTable("Break-even sensitivity (DRAM-DFM cost, ±20% per parameter)",
			"parameter", "-20% (years)", "+20% (years)", "spread")
		for _, r := range costmodel.SensitivityOf(p, 0.2, 60) {
			fmtY := func(y float64, ok bool) string {
				if !ok {
					return "none"
				}
				return fmt.Sprintf("%.1f", y)
			}
			t.AddRow(r.Param, fmtY(r.LowYears, r.LowOK), fmtY(r.HighYears, r.HighOK),
				fmt.Sprintf("%.1f", r.Spread))
		}
		fmt.Print(t.String())
		return
	}

	fmt.Printf("Far memory: %.0f GB at %.0f%% promotion (%.1f GB/min swapped, %.2f GB/s)\n",
		p.ExtraGB, p.PromotionRate*100, p.GBSwappedPerMin(), p.GBSwappedPerMin()/60)
	fmt.Printf("CPU cycles needed: %.2f sockets; compression power: %.0f W\n\n",
		p.CPUNeededFraction(), p.CompressionWatts())

	t := stats.NewTable("Cumulative cost ($) and emissions (kgCO2eq)",
		"year", "SFM $", "DRAM-DFM $", "PMem-DFM $", "SFM CO2", "DRAM-DFM CO2", "PMem-DFM CO2")
	for y := 0.0; y <= *years; y += *step {
		t.AddRow(
			fmt.Sprintf("%.1f", y),
			fmt.Sprintf("%.0f", p.SFMCost(y)),
			fmt.Sprintf("%.0f", p.DFMCost(costmodel.DRAM, y)),
			fmt.Sprintf("%.0f", p.DFMCost(costmodel.PMem, y)),
			fmt.Sprintf("%.0f", p.SFMEmission(y)),
			fmt.Sprintf("%.0f", p.DFMEmission(costmodel.DRAM, y)),
			fmt.Sprintf("%.0f", p.DFMEmission(costmodel.PMem, y)),
		)
	}
	fmt.Print(t.String())

	fmt.Println()
	report := func(label string, tech costmodel.MemoryTech, f func(costmodel.MemoryTech, float64) (float64, bool)) {
		if y, ok := f(tech, 50); ok {
			fmt.Printf("%s: %.1f years\n", label, y)
		} else {
			fmt.Printf("%s: none within 50 years\n", label)
		}
	}
	report("Cost break-even vs DRAM-DFM", costmodel.DRAM, p.CostBreakEvenYears)
	report("Cost break-even vs PMem-DFM", costmodel.PMem, p.CostBreakEvenYears)
	report("Emission break-even vs DRAM-DFM", costmodel.DRAM, p.EmissionBreakEvenYears)
	report("Emission break-even vs PMem-DFM", costmodel.PMem, p.EmissionBreakEvenYears)
	fmt.Printf("Integrated accelerator beneficial above %.1f%% promotion\n",
		p.AcceleratorBeneficialPromotion()*100)
}
