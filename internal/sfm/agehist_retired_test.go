// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with agehist_test.go.

package sfm

import (
	"sort"

	"xfm/internal/dram"
)

// AgeHistogram summarizes how long the heap's resident pages have been
// idle — the kstaled-style page-age scanning behind Google's cold-page
// policy (§2.1, §3.1: "classifying pages as cold after going 120
// seconds without an access results in over 30% of memory being
// detected as cold and a 15% promotion rate"). The SFM controller uses
// it to pick a cold-age threshold that yields a target cold fraction
// instead of hard-coding one.
type AgeHistogram struct {
	ages []dram.Ps // idle durations of resident pages, sorted
}

// ScanAges builds the histogram for the heap's resident set at time
// now.
func ScanAges(h *Heap, now dram.Ps) *AgeHistogram {
	var ages []dram.Ps
	for _, id := range h.PageIDs() {
		if !h.Resident(id) {
			continue
		}
		last, _ := h.LastAccess(id)
		age := now - last
		if age < 0 {
			age = 0
		}
		ages = append(ages, age)
	}
	sort.Slice(ages, func(i, j int) bool { return ages[i] < ages[j] })
	return &AgeHistogram{ages: ages}
}

// Pages returns the number of resident pages scanned.
func (a *AgeHistogram) Pages() int { return len(a.ages) }

// ColdFraction returns the fraction of resident pages idle for at
// least threshold.
func (a *AgeHistogram) ColdFraction(threshold dram.Ps) float64 {
	if len(a.ages) == 0 {
		return 0
	}
	// First index with age ≥ threshold.
	i := sort.Search(len(a.ages), func(i int) bool { return a.ages[i] >= threshold })
	return float64(len(a.ages)-i) / float64(len(a.ages))
}

// ThresholdForColdFraction returns the smallest idle threshold that
// still marks at least the target fraction of pages cold; ok is false
// when even a zero threshold cannot reach the target (target > 1) or
// the heap is empty.
func (a *AgeHistogram) ThresholdForColdFraction(target float64) (dram.Ps, bool) {
	if len(a.ages) == 0 || target <= 0 || target > 1 {
		return 0, false
	}
	// Marking the oldest k pages cold needs threshold ≤ age of the
	// k-th oldest page.
	k := int(target * float64(len(a.ages)))
	if k == 0 {
		k = 1
	}
	idx := len(a.ages) - k
	return a.ages[idx], true
}

// Quantile returns the q-th idle-age quantile.
func (a *AgeHistogram) Quantile(q float64) dram.Ps {
	if len(a.ages) == 0 {
		return 0
	}
	if q <= 0 {
		return a.ages[0]
	}
	if q >= 1 {
		return a.ages[len(a.ages)-1]
	}
	return a.ages[int(q*float64(len(a.ages)-1))]
}

// AdaptiveColdController pairs the age histogram with the cold
// scanner: each run it re-derives the cold threshold that demotes the
// target fraction of the resident set, then applies it — Google's
// approach of tuning the cold-age cutoff against a memory-savings
// goal.
type AdaptiveColdController struct {
	Heap *Heap
	// TargetColdFraction is the share of resident memory to demote
	// per pass (Google's fleet observation: 120 s cutoff ⇒ ≈30%).
	TargetColdFraction float64
	// MinThreshold floors the derived cutoff so recently used pages
	// are never demoted.
	MinThreshold dram.Ps

	// LastThreshold records the cutoff used by the previous run.
	LastThreshold dram.Ps
}

// Run implements Controller.
func (c *AdaptiveColdController) Run(now dram.Ps) int {
	hist := ScanAges(c.Heap, now)
	threshold, ok := hist.ThresholdForColdFraction(c.TargetColdFraction)
	if !ok {
		return 0
	}
	if threshold < c.MinThreshold {
		threshold = c.MinThreshold
	}
	c.LastThreshold = threshold
	inner := &ColdScanController{Heap: c.Heap, ColdAfter: threshold}
	return inner.Run(now)
}

var _ Controller = (*AdaptiveColdController)(nil)
