package workload

import (
	"fmt"

	"xfm/internal/corpus"
	"xfm/internal/dram"
	"xfm/internal/sfm"
	"xfm/internal/telemetry"
	"xfm/internal/trace"
)

// WebFrontend is the synthetic web front-end application of §7: a
// DataFrame-style analytics service whose column data lives in an
// AIFM-style far-memory heap. Queries touch pages with Zipfian
// locality; the SFM controller demotes cold pages; hot-set shifts
// cause demand faults and prefetches. Running it produces the
// swap-in/out trace the XFM emulator consumes.
type WebFrontend struct {
	// Pages is the total data set size in pages.
	Pages int
	// HotFraction is the share of pages in the working set at any
	// time.
	HotFraction float64
	// Queries is the number of query operations to run.
	Queries int
	// QueryGapPs is the simulated time between queries.
	QueryGapPs dram.Ps
	// ColdAfter demotes pages idle longer than this.
	ColdAfter dram.Ps
	// ShiftEvery rotates the hot set every N queries (phase change),
	// generating prefetch bursts. 0 disables shifts.
	ShiftEvery int
	// Seed drives all randomness.
	Seed int64
}

// DefaultWebFrontend returns the configuration used by the
// experiments: 512 pages (2 MiB of columns), 25% hot, phase shift
// every 500 queries.
func DefaultWebFrontend() WebFrontend {
	return WebFrontend{
		Pages:       512,
		HotFraction: 0.25,
		Queries:     4000,
		QueryGapPs:  dram.Millisecond,
		ColdAfter:   200 * dram.Millisecond,
		ShiftEvery:  500,
		Seed:        1,
	}
}

// Result is the outcome of one web-front-end run.
type Result struct {
	Trace        []trace.Record
	HeapStats    sfm.HeapStats
	BackendStats sfm.BackendStats
	// PromotionRate is the observed far-memory promotion rate: the
	// fraction of pages that resided in far memory during the run
	// which were promoted back at least once (§2.1). Always in [0, 1].
	PromotionRate float64
	Duration      dram.Ps
}

// Run executes the workload against the given backend and returns the
// swap trace and statistics.
func (w WebFrontend) Run(backend sfm.Backend) (Result, error) {
	if w.Pages <= 0 || w.Queries <= 0 {
		return Result{}, fmt.Errorf("workload: non-positive pages/queries in %+v", w)
	}
	heap := sfm.NewHeap(backend)
	ids := make([]sfm.PageID, w.Pages)
	for i := range ids {
		// Column data: CSV-like tables, realistic compressibility.
		data := corpus.CSVTable(w.Seed+int64(i), sfm.PageSize)
		ids[i] = heap.Alloc(0, data)
	}
	zipf := NewZipfAccess(w.Seed, max(int(float64(w.Pages)*w.HotFraction), 1), 1.3)
	ctl := &sfm.ColdScanController{Heap: heap, ColdAfter: w.ColdAfter}

	var rec []trace.Record
	// Distinct-page tracking for the promotion rate (§2.1): everFar
	// marks pages that resided in far memory at any point, promoted
	// marks those promoted back at least once. Raw byte counters would
	// count re-promotions of the same hot page every time. The running
	// counts feed the sfm_promotion_rate gauge every cold-scan
	// epoch so the flight recorder sees the rate as a trajectory.
	everFar := make([]bool, w.Pages)
	promoted := make([]bool, w.Pages)
	farCount, promCount := 0, 0
	markFar := func(i int) {
		if !everFar[i] {
			everFar[i] = true
			farCount++
		}
	}
	markPromoted := func(i int) {
		markFar(i)
		if !promoted[i] {
			promoted[i] = true
			promCount++
		}
	}
	hotBase := 0
	now := dram.Ps(0)
	for q := 0; q < w.Queries; q++ {
		now += w.QueryGapPs
		// Hot-set rotation: a phase change makes a new region hot; the
		// controller prefetches it (predictable access pattern, §3.2).
		if w.ShiftEvery > 0 && q > 0 && q%w.ShiftEvery == 0 {
			hotBase = (hotBase + int(float64(w.Pages)*w.HotFraction)) % w.Pages
			for i := 0; i < int(float64(w.Pages)*w.HotFraction)/2; i++ {
				pi := (hotBase + i) % w.Pages
				id := ids[pi]
				if !heap.Resident(id) {
					if err := heap.Prefetch(now, id); err == nil {
						rec = append(rec, trace.Record{AtPs: now, Op: trace.Prefetch, PageID: int64(id), Bytes: sfm.PageSize})
						markPromoted(pi)
					}
				}
			}
		}
		idx := (hotBase + zipf.Next()) % w.Pages
		id := ids[idx]
		wasFar := !heap.Resident(id)
		if _, err := heap.Touch(now, id); err != nil {
			return Result{}, err
		}
		if wasFar {
			rec = append(rec, trace.Record{AtPs: now, Op: trace.SwapIn, PageID: int64(id), Bytes: sfm.PageSize})
			markPromoted(idx)
		}
		// Periodic cold scan (the kreclaimd-style daemon).
		if q%100 == 99 {
			before := heap.Stats().FarPages
			ctl.Run(now)
			demoted := heap.Stats().FarPages - before
			for k := int64(0); k < demoted; k++ {
				rec = append(rec, trace.Record{AtPs: now, Op: trace.SwapOut, PageID: -1, Bytes: sfm.PageSize})
			}
			// Demotions only happen inside scans, so sampling residency
			// here observes every page that ever went far.
			for i, id := range ids {
				if !heap.Resident(id) {
					markFar(i)
				}
			}
			if farCount > 0 {
				telemetry.SFMPromotionRate.Set(float64(promCount) / float64(farCount))
			}
		}
	}
	promotedBytes := int64(promCount) * sfm.PageSize
	farBytes := int64(farCount) * sfm.PageSize
	res := Result{
		Trace:        rec,
		HeapStats:    heap.Stats(),
		BackendStats: backend.Stats(),
		Duration:     now,
	}
	res.PromotionRate = PromotionRateOfTrace(promotedBytes, farBytes)
	return res, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
