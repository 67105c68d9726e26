// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with closedloop_test.go.

package memsim

import (
	"xfm/internal/dram"
	"xfm/internal/memctrl"
)

// Closed-loop mode: instead of offering a fixed rate (open loop, where
// contention shows up as latency), each stream keeps a bounded number
// of requests in flight and issues the next one when an earlier one
// completes. Contention then shows up as lost throughput — the runtime
// slowdown co-running applications actually experience.

// ClosedLoopResult reports one stream's achieved service.
type ClosedLoopResult struct {
	Spec          StreamSpec
	Requests      int64
	Bytes         int64
	AchievedGBps  float64
	MeanLatencyNs float64
}

// RunClosedLoop simulates the streams for dur with each stream keeping
// `outstanding` requests in flight (≥1). The StreamSpec rates are
// ignored; each stream issues as fast as its completions allow.
func (sys System) RunClosedLoop(specs []StreamSpec, dur dram.Ps, outstanding int) ([]ClosedLoopResult, error) {
	for _, s := range specs {
		if err := s.Validate(sys.Mapping); err != nil {
			return nil, err
		}
	}
	if outstanding < 1 {
		outstanding = 1
	}
	ctl := memctrl.NewController(sys.Mapping, sys.Timings)
	states := make([]*streamState, len(specs))
	// next-issue times per stream: a ring of the last `outstanding`
	// completions; the next request may issue when the oldest
	// outstanding slot frees.
	slots := make([][]dram.Ps, len(specs))
	for i, s := range specs {
		states[i] = newStreamState(s)
		slots[i] = make([]dram.Ps, outstanding) // all zero: can issue at t=0
	}
	cursor := make([]int, len(specs))

	for {
		// Pick the stream able to issue earliest.
		best, bestAt := -1, dram.Ps(0)
		for i := range states {
			at := slots[i][cursor[i]]
			if at > dur {
				continue
			}
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			break
		}
		ev := states[best].generate(bestAt)
		ev.req.At = bestAt
		done := ctl.Submit(ev.req)
		slots[best][cursor[best]] = done
		cursor[best] = (cursor[best] + 1) % outstanding
	}

	out := make([]ClosedLoopResult, len(specs))
	for i, s := range specs {
		st := ctl.Stream(s.ID)
		out[i] = ClosedLoopResult{
			Spec:          s,
			Requests:      st.Requests,
			Bytes:         st.Bytes,
			AchievedGBps:  float64(st.Bytes) / (float64(dur) / float64(dram.Second)) / 1e9,
			MeanLatencyNs: st.MeanLatencyNs(),
		}
	}
	return out, nil
}

// ThroughputSlowdown runs each stream alone and together in closed
// loop and returns achieved-bandwidth ratios (solo ÷ co-run ≥ 1): the
// direct analogue of the paper's runtime slowdowns.
func (sys System) ThroughputSlowdown(specs []StreamSpec, dur dram.Ps, outstanding int) ([]float64, error) {
	co, err := sys.RunClosedLoop(specs, dur, outstanding)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(specs))
	for i, s := range specs {
		solo, err := sys.RunClosedLoop([]StreamSpec{s}, dur, outstanding)
		if err != nil {
			return nil, err
		}
		if co[i].AchievedGBps > 0 {
			out[i] = solo[0].AchievedGBps / co[i].AchievedGBps
		} else {
			out[i] = 1
		}
	}
	return out, nil
}
