// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with TestPressureController* (sfm_test.go) and the other *_retired_test.go controllers.

package sfm

import "xfm/internal/dram"

// Controller is the SFM control plane: it selects cold pages and
// initiates swap-outs (§6 "the SFM_Controller selects a cold page
// based on an algorithm or set of heuristics").
type Controller interface {
	// Run applies the policy at time now and returns how many pages
	// it swapped out.
	Run(now dram.Ps) int
}

// PressureController implements Meta-style pressure-driven reclaim
// (§2.1: "Meta utilizes pressure metrics exposed by the OS"): when
// resident pages exceed TargetResidentPages, the least recently used
// pages are demoted until the target is met.
type PressureController struct {
	Heap                *Heap
	TargetResidentPages int64
}

// Run implements Controller.
func (c *PressureController) Run(now dram.Ps) int {
	over := c.Heap.Stats().ResidentPages - c.TargetResidentPages
	if over <= 0 {
		return 0
	}
	// Collect resident pages sorted by last access (oldest first).
	type cand struct {
		id   PageID
		last dram.Ps
	}
	var cands []cand
	for _, id := range c.Heap.PageIDs() {
		if c.Heap.Resident(id) {
			last, _ := c.Heap.LastAccess(id)
			cands = append(cands, cand{id, last})
		}
	}
	// Insertion sort by last-access time; candidate lists are small in
	// the workloads and mostly sorted by allocation order.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].last < cands[j-1].last; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	n := 0
	for _, cd := range cands {
		if int64(n) >= over {
			break
		}
		if c.Heap.SwapOut(now, cd.id) == nil {
			n++
		}
	}
	return n
}
