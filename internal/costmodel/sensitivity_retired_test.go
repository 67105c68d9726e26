// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with TestBreakEvenRobustness and TestMonteCarloBreakEven (sensitivity_test.go).

package costmodel

import (
	"math/rand"
	"sort"
)

// BreakEvenRobust reports whether the DRAM cost break-even stays
// within [minYears, maxYears] for every single-parameter perturbation
// of ±swing — the check that the paper's 8.5-year conclusion is not an
// artifact of one fitted constant.
func BreakEvenRobust(base Params, swing, minYears, maxYears, horizon float64) bool {
	for _, r := range SensitivityOf(base, swing, horizon) {
		for _, ok := range []struct {
			ok bool
			y  float64
		}{{r.LowOK, r.LowYears}, {r.HighOK, r.HighYears}} {
			if !ok.ok {
				return false
			}
			if ok.y < minYears || ok.y > maxYears {
				return false
			}
		}
	}
	return true
}

// MonteCarloResult summarizes a sampled break-even distribution.
type MonteCarloResult struct {
	Samples int
	// NoBreakEvenFrac is the fraction of samples where SFM never
	// catches DFM within the horizon (SFM stays cheaper throughout).
	NoBreakEvenFrac float64
	// UpfrontLossFrac is the fraction where SFM starts more expensive.
	UpfrontLossFrac float64
	// P10, P50, P90 are percentiles of the break-even year among
	// samples that have one.
	P10, P50, P90 float64
}

// MonteCarloBreakEven samples every model parameter independently and
// uniformly within ±swing and returns the distribution of the
// DRAM-DFM cost break-even year. Deterministic for a given seed.
func MonteCarloBreakEven(base Params, swing float64, samples int, seed int64, horizon float64) MonteCarloResult {
	rng := rand.New(rand.NewSource(seed))
	var years []float64
	res := MonteCarloResult{Samples: samples}
	none, upfront := 0, 0
	for i := 0; i < samples; i++ {
		p := base
		for _, a := range accessors() {
			a.apply(&p, 1-swing+2*swing*rng.Float64())
		}
		if p.SFMCost(0) >= p.DFMCost(DRAM, 0) {
			upfront++
			continue
		}
		if y, ok := p.CostBreakEvenYears(DRAM, horizon); ok {
			years = append(years, y)
		} else {
			none++
		}
	}
	res.NoBreakEvenFrac = float64(none) / float64(samples)
	res.UpfrontLossFrac = float64(upfront) / float64(samples)
	if len(years) > 0 {
		sort.Float64s(years)
		pick := func(q float64) float64 {
			i := int(q * float64(len(years)-1))
			return years[i]
		}
		res.P10, res.P50, res.P90 = pick(0.1), pick(0.5), pick(0.9)
	}
	return res
}
