// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with senpai_test.go.

package sfm

import "xfm/internal/dram"

// SenpaiController implements Meta's pressure-driven reclaim policy
// (§2.1: "Meta uses a userspace program, senpai, to initiate reclaim
// based on OS-provided performance metrics"). It continuously probes
// for the smallest resident set the workload tolerates: while measured
// memory pressure (stall time caused by demand faults, the PSI
// metric) stays below the target, the resident allowance shrinks;
// when pressure exceeds the target, the allowance backs off.
type SenpaiController struct {
	Heap *Heap

	// TargetPressure is the acceptable stall-time fraction (senpai
	// defaults to ~0.1%).
	TargetPressure float64
	// FaultCost is the modeled stall per demand fault (CPU
	// decompression latency plus the page walk).
	FaultCost dram.Ps
	// ShrinkStep and GrowStep are the multiplicative adjustments per
	// run (senpai shrinks slowly, backs off fast).
	ShrinkStep float64
	GrowStep   float64
	// MinResidentPages floors the allowance.
	MinResidentPages int64

	// allowance is the current resident-set target; 0 = uninitialized
	// (set to the current resident count on first Run).
	allowance  int64
	lastFaults int64
	lastRun    dram.Ps

	// LastPressure is the pressure observed at the previous Run, for
	// inspection.
	LastPressure float64
}

// NewSenpaiController returns a controller with senpai-like defaults.
func NewSenpaiController(h *Heap) *SenpaiController {
	return &SenpaiController{
		Heap:             h,
		TargetPressure:   0.001,
		FaultCost:        20 * dram.Microsecond,
		ShrinkStep:       0.02,
		GrowStep:         0.10,
		MinResidentPages: 8,
	}
}

// Allowance returns the current resident-set target in pages.
func (c *SenpaiController) Allowance() int64 { return c.allowance }

// Run implements Controller: it measures pressure since the last run,
// adjusts the allowance, and demotes LRU pages above it. It returns
// the number of pages swapped out.
func (c *SenpaiController) Run(now dram.Ps) int {
	st := c.Heap.Stats()
	if c.allowance == 0 {
		c.allowance = st.ResidentPages
		c.lastFaults = st.DemandFaults
		c.lastRun = now
		return 0
	}
	interval := now - c.lastRun
	if interval <= 0 {
		return 0
	}
	faults := st.DemandFaults - c.lastFaults
	pressure := float64(faults) * float64(c.FaultCost) / float64(interval)
	c.LastPressure = pressure
	c.lastFaults = st.DemandFaults
	c.lastRun = now

	if pressure > c.TargetPressure {
		// Back off: grow the allowance quickly.
		c.allowance = int64(float64(c.allowance) * (1 + c.GrowStep))
		if c.allowance > st.ResidentPages+st.FarPages {
			c.allowance = st.ResidentPages + st.FarPages
		}
		return 0
	}
	// Probe: shrink the allowance slowly and reclaim down to it.
	c.allowance = int64(float64(c.allowance) * (1 - c.ShrinkStep))
	if c.allowance < c.MinResidentPages {
		c.allowance = c.MinResidentPages
	}
	inner := &PressureController{Heap: c.Heap, TargetResidentPages: c.allowance}
	return inner.Run(now)
}

var _ Controller = (*SenpaiController)(nil)
