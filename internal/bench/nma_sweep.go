package bench

// nma_window_sweep: the simulator-path scenario. The swap scenarios
// time the codec/backend hot path; this one times the NMA window
// engine — `Array.AdvanceTo` over mixed idle/busy traffic, the cost
// every experiment and the emulator harness pays per simulated
// interval. One op is a burst of page offloads landing near each
// rank's upcoming refresh groups (busy head) followed by an AdvanceTo
// across a mostly-idle horizon (idle tail the event-driven engine
// fast-forwards). PagesPerSec is offloaded pages per wall second
// through the full submit→advance→complete cycle.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"xfm/internal/dram"
	"xfm/internal/nma"
)

const (
	// sweepRanks matches the paper's 10-rank deployment scaled to a CI
	// box; 4 staggered ranks exercise per-rank skip bookkeeping.
	sweepRanks = 4
	// sweepPages per op, round-robined across ranks.
	sweepPages = 64
	// sweepWindows is the horizon each op advances: the burst drains in
	// the first few dozen windows, the rest is idle tail.
	sweepWindows = 2048
)

func runNMAWindowSweep(name string) (Result, error) {
	cfg := nma.DefaultConfig(dram.Device32Gb)
	trefi := cfg.Timings.TREFI
	groups := cfg.Device.RefreshGroups()
	var failure error
	var opNs []int64
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		a := nma.NewArray(cfg, sweepRanks)
		// Ranks are staggered (rank k starts k·groups/ranks windows
		// ahead), so anchor the horizon to the last rank's clock: every
		// rank then advances at least sweepWindows per op.
		horizon := a.Rank(sweepRanks-1).Now() - trefi
		opNs = make([]int64, b.N)
		b.ResetTimer()
		prev := time.Now()
		for i := 0; i < b.N; i++ {
			// Busy head: sources a few groups ahead of each rank's
			// refresh counter, so conditional windows serve the burst
			// within the first dozens of tREFIs. Flexible destinations
			// keep write-backs conditional too.
			cur := a.CurrentGroups()
			for j := 0; j < sweepPages; j++ {
				rank := j % sweepRanks
				req := nma.Request{
					ID:       int64(i*sweepPages + j),
					Kind:     nma.OpKind(j % 2),
					SrcGroup: (cur[rank] + 1 + j/sweepRanks) % groups,
					DstGroup: -1,
					Arrive:   horizon,
				}
				if !a.Submit(rank, req) {
					failure = fmt.Errorf("sweep op %d: submit rejected (queue should never fill)", i)
					b.FailNow()
				}
			}
			// Idle tail: the engine should fast-forward almost all of it.
			horizon += sweepWindows * trefi
			a.AdvanceTo(horizon)
			now := time.Now()
			opNs[i] = now.Sub(prev).Nanoseconds()
			prev = now
		}
		b.StopTimer()
		st := a.Stats()
		if st.Completed != st.Submitted {
			failure = fmt.Errorf("sweep: %d of %d offloads completed", st.Completed, st.Submitted)
		}
	})
	if failure != nil {
		return Result{}, fmt.Errorf("bench %s: %w", name, failure)
	}
	if br.N == 0 {
		return Result{}, fmt.Errorf("bench %s: no iterations ran", name)
	}
	intervals := intervalRates(opNs, sweepPages)
	return Result{
		Name:        name,
		PagesPerSec: float64(br.N) * sweepPages / br.T.Seconds(),
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		AllocsPerOp: float64(br.AllocsPerOp()),
		// No codec runs in this scenario; the pages are simulated
		// offloads, not compressed bytes.
		CompressionRatio:       0,
		PagesPerOp:             sweepPages,
		GoMaxProcs:             runtime.GOMAXPROCS(0),
		IntervalPagesPerSec:    intervals,
		SteadyStatePagesPerSec: steadyState(intervals),
	}, nil
}
