package nma

import (
	"fmt"

	"xfm/internal/dram"
)

// Array models the NMAs of a multi-rank XFM deployment: one Sim per
// rank, with each rank's refresh counter offset from its neighbors.
// Memory controllers deliberately stagger REF commands across ranks
// (so refresh current draw does not align), which XFM inherits: at any
// instant some rank is inside (or near) a refresh window, smoothing
// the side channel's aggregate service.
type Array struct {
	sims   []*Sim
	offset []int // per-rank refresh counter offset in groups
	next   int   // round-robin cursor for unplaced requests
}

// NewArray builds n rank simulators with evenly staggered refresh
// counters. It panics for n ≤ 0, which indicates a programming error.
func NewArray(cfg Config, n int) *Array {
	if n <= 0 {
		panic("nma: array needs at least one rank")
	}
	a := &Array{}
	groups := cfg.Device.RefreshGroups()
	for i := 0; i < n; i++ {
		sim := NewSim(cfg)
		off := i * groups / n
		// Start the rank's window clock `off` windows ahead so its
		// refresh counter leads by `off` groups. Setting the clock
		// directly (rather than stepping `off` empty windows) keeps
		// construction O(1) and leaves Stats/metrics untouched — the
		// stagger is an initial condition, not simulated history.
		sim.window = int64(off)
		a.sims = append(a.sims, sim)
		a.offset = append(a.offset, off)
	}
	return a
}

// Rank returns rank i's simulator.
func (a *Array) Rank(i int) *Sim { return a.sims[i] }

// Submit routes a request to a rank. rank < 0 selects round-robin
// (pages interleave across ranks in real systems; round-robin models
// an even spread without tracking exact addresses).
func (a *Array) Submit(rank int, req Request) bool {
	if rank < 0 {
		rank = a.next % len(a.sims)
		a.next++
	}
	if rank >= len(a.sims) {
		panic(fmt.Sprintf("nma: rank %d out of range", rank))
	}
	return a.sims[rank].Submit(req)
}

// AdvanceTo steps every rank's windows to time now, fast-forwarding
// each rank through its idle stretches.
func (a *Array) AdvanceTo(now dram.Ps) {
	for _, s := range a.sims {
		s.AdvanceTo(now)
	}
}

// Stats aggregates all ranks' statistics.
func (a *Array) Stats() Stats {
	var out Stats
	for _, s := range a.sims {
		st := s.Stats()
		out.Submitted += st.Submitted
		out.Fallbacks += st.Fallbacks
		out.Completed += st.Completed
		out.Conditional += st.Conditional
		out.Random += st.Random
		out.ReadCond += st.ReadCond
		out.ReadRand += st.ReadRand
		out.WriteCond += st.WriteCond
		out.WriteRand += st.WriteRand
		out.SumLatencyPs += st.SumLatencyPs
		out.Windows += st.Windows
		out.BusyWindows += st.BusyWindows
		out.StormWindows += st.StormWindows
		if st.MaxLatencyPs > out.MaxLatencyPs {
			out.MaxLatencyPs = st.MaxLatencyPs
		}
		if st.MaxSPMOccupancy > out.MaxSPMOccupancy {
			out.MaxSPMOccupancy = st.MaxSPMOccupancy
		}
	}
	return out
}

// CurrentGroups returns each rank's next refresh group, exposing the
// stagger.
func (a *Array) CurrentGroups() []int {
	out := make([]int, len(a.sims))
	for i, s := range a.sims {
		out[i] = int(s.window % int64(s.groups))
	}
	return out
}
