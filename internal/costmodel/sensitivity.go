package costmodel

import "sort"

// Sensitivity analysis of the §3 model: because several constants are
// not printed in the paper (memory prices, per-cycle energy), the
// break-even conclusions must be robust to them. SensitivityOf sweeps
// each parameter ±`swing` and reports how far the DRAM-DFM cost
// break-even year moves — a tornado-chart input.

// SensitivityRow is one parameter's effect.
type SensitivityRow struct {
	Param string
	// LowYears / HighYears are the break-even years at (1−swing)× and
	// (1+swing)× the parameter. 0 with OK=false means no break-even
	// within the horizon.
	LowYears, HighYears float64
	LowOK, HighOK       bool
	// Spread is |HighYears − LowYears| when both exist, else the
	// horizon (maximally sensitive).
	Spread float64
}

// paramAccessor mutates one Params field multiplicatively.
type paramAccessor struct {
	name  string
	apply func(p *Params, factor float64)
}

func accessors() []paramAccessor {
	return []paramAccessor{
		{"DRAMCostPerGB", func(p *Params, f float64) { p.DRAMCostPerGB *= f }},
		{"CPUPurchasePrice", func(p *Params, f float64) { p.CPUPurchasePrice *= f }},
		{"CCPerGB", func(p *Params, f float64) { p.CCPerGB *= f }},
		{"CycleEnergyNJ", func(p *Params, f float64) { p.CycleEnergyNJ *= f }},
		{"ElectricityCost", func(p *Params, f float64) { p.ElectricityCost *= f }},
		{"IdleDIMMWatts", func(p *Params, f float64) { p.IdleDIMMWatts *= f }},
		{"PromotionRate", func(p *Params, f float64) {
			p.PromotionRate *= f
			if p.PromotionRate > 1 {
				p.PromotionRate = 1
			}
		}},
	}
}

// SensitivityOf sweeps every parameter ±swing around base and returns
// rows sorted by decreasing spread of the DRAM cost break-even year.
func SensitivityOf(base Params, swing, horizon float64) []SensitivityRow {
	rows := make([]SensitivityRow, 0, len(accessors()))
	for _, a := range accessors() {
		var row SensitivityRow
		row.Param = a.name

		lo := base
		a.apply(&lo, 1-swing)
		row.LowYears, row.LowOK = lo.CostBreakEvenYears(DRAM, horizon)

		hi := base
		a.apply(&hi, 1+swing)
		row.HighYears, row.HighOK = hi.CostBreakEvenYears(DRAM, horizon)

		switch {
		case row.LowOK && row.HighOK:
			row.Spread = row.HighYears - row.LowYears
			if row.Spread < 0 {
				row.Spread = -row.Spread
			}
		case row.LowOK || row.HighOK:
			row.Spread = horizon
		default:
			row.Spread = 0
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Spread > rows[j].Spread })
	return rows
}
