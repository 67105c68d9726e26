// Package contention models the co-run interference between
// memory-intensive applications and SFM swap traffic (Fig. 11, §3.2).
//
// The model captures the three interference mechanisms the paper
// identifies:
//
//  1. Memory-channel contention — Baseline-CPU SFM moves every swapped
//     byte over the DDR channels four times (read cold page, write
//     compressed copy, read compressed copy, write decompressed page;
//     §3.3 footnote), inflating queueing delay for co-runners.
//  2. LLC pollution — page-granular streaming (de)compression evicts
//     co-runners' working sets (§3.2, overhead O4).
//  3. Rank lockout — a Host-Lockout NMA (Boroumand et al.'s interface)
//     blocks host accesses to a rank while the NMA works, stalling
//     memory-bound co-runners even though no channel bandwidth is
//     consumed.
//
// XFM suffers none of the three: NMA accesses hide inside refresh
// windows the host loses anyway.
package contention

import (
	"fmt"

	"xfm/internal/workload"
)

// Mode is the SFM implementation being co-run (the three bars of
// Fig. 11).
type Mode int

// Co-run configurations.
const (
	BaselineCPU Mode = iota
	HostLockoutNMA
	XFM
)

func (m Mode) String() string {
	switch m {
	case BaselineCPU:
		return "Baseline-CPU"
	case HostLockoutNMA:
		return "Host-Lockout-NMA"
	case XFM:
		return "XFM"
	default:
		return "invalid"
	}
}

// Modes returns all three configurations in Fig. 11 order.
func Modes() []Mode { return []Mode{BaselineCPU, HostLockoutNMA, XFM} }

// System describes the shared memory system.
type System struct {
	Channels       int
	ChannelGBps    float64 // peak per channel
	Ranks          int
	RankStreamGBps float64 // per-rank sustainable stream bandwidth
	// NMAEngineGBps is the (de)compression engine throughput of the
	// lockout-style NMA; the rank stays locked while the engine works
	// (the open-source FPGA Deflate runs at ~1.4 GB/s, §8).
	NMAEngineGBps float64
	// PageBytes is the offload granularity.
	PageBytes int
	// SFMMemBoundShare is the fraction of the CPU swap path stalled on
	// memory (compression is compute-heavy, so this is modest).
	SFMMemBoundShare float64
	// LLCPollutionCoef converts SFM streaming intensity into an LLC
	// pollution factor; calibrated against the §3.2 antagonist
	// experiment (≈7.5% peak runtime increase).
	LLCPollutionCoef float64
}

// DefaultSystem returns the evaluation platform's shape (§7: Xeon
// Gold 6242-class, 6 DIMMs at 3200 MT/s).
func DefaultSystem() System {
	return System{
		Channels:         6,
		ChannelGBps:      25.6,
		Ranks:            12,
		RankStreamGBps:   12,
		NMAEngineGBps:    1.4,
		PageBytes:        4096,
		SFMMemBoundShare: 0.2,
		LLCPollutionCoef: 0.030,
	}
}

// SFMTraffic describes the swap load.
type SFMTraffic struct {
	// SwapGBps is the one-directional swap rate (EQ1 / 60 s).
	SwapGBps float64
	// CompressionRatio shrinks the compressed-side transfers.
	CompressionRatio float64
}

// ChannelDemandGBps returns the DDR channel bandwidth the SFM
// consumes under the given mode. Baseline-CPU pays full freight
// (§3.3: 4× the swap rate, reduced on the compressed side by the
// ratio); both NMA designs bypass the channel entirely.
func (t SFMTraffic) ChannelDemandGBps(m Mode) float64 {
	if m != BaselineCPU {
		return 0
	}
	ratio := t.CompressionRatio
	if ratio < 1 {
		ratio = 1
	}
	// Uncompressed side: read cold page + write decompressed page.
	// Compressed side: write + read compressed copies.
	return t.SwapGBps * (2 + 2/ratio)
}

// Result holds one co-run outcome.
type Result struct {
	Mode Mode
	// Slowdowns[i] is workload i's runtime relative to running
	// without the SFM antagonist (1.0 = unaffected).
	Slowdowns []float64
	// SFMThroughputFactor is the SFM's achieved swap throughput
	// relative to running alone (1.0 = unaffected).
	SFMThroughputFactor float64
}

// MaxSlowdown returns the worst workload slowdown.
func (r Result) MaxSlowdown() float64 {
	m := 1.0
	for _, s := range r.Slowdowns {
		if s > m {
			m = s
		}
	}
	return m
}

// queueFactor converts bus utilization into a relative latency factor
// with an M/M/1-shaped knee, capped to keep the model stable near
// saturation.
func queueFactor(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 0.95 {
		util = 0.95
	}
	return 1 / (1 - util)
}

// CoRun evaluates the co-run of the given workloads with SFM traffic
// under mode m.
func CoRun(sys System, profiles []workload.AntagonistProfile, t SFMTraffic, m Mode) (Result, error) {
	if sys.Channels <= 0 || sys.ChannelGBps <= 0 || sys.Ranks <= 0 {
		return Result{}, fmt.Errorf("contention: invalid system %+v", sys)
	}
	peak := float64(sys.Channels) * sys.ChannelGBps

	appDemand := 0.0
	for _, p := range profiles {
		appDemand += p.BWDemandGBps
	}
	sfmDemand := t.ChannelDemandGBps(m)

	utilWithout := appDemand / peak
	utilWith := (appDemand + sfmDemand) / peak
	// Relative increase in memory latency from the added channel
	// traffic.
	latencyBlowup := queueFactor(utilWith)/queueFactor(utilWithout) - 1

	// Host-lockout: the fraction of time each rank is unavailable to
	// the host because the NMA holds it (§8: the low per-rank
	// bandwidth requirement of SFM "does not justify the lockout
	// interface").
	lockFrac := 0.0
	if m == HostLockoutNMA {
		// Each offload locks its rank for the page transfer plus the
		// engine's compute time; coarse-grain locking is what makes
		// this design expensive (§8: the lockout interface is not
		// justified by SFM's low per-rank bandwidth needs).
		page := float64(sys.PageBytes)
		perOpLockSec := page/(sys.RankStreamGBps*1e9) + page/(sys.NMAEngineGBps*1e9)
		opsPerSec := 2 * t.SwapGBps * 1e9 / page // compress + decompress
		lockFrac = opsPerSec / float64(sys.Ranks) * perOpLockSec
		if lockFrac > 0.9 {
			lockFrac = 0.9
		}
	}

	// LLC pollution applies only when pages stream through the cache
	// hierarchy (CPU compression).
	pollution := 0.0
	if m == BaselineCPU {
		pollution = sys.LLCPollutionCoef * t.SwapGBps // per GB/s of streaming
		if pollution > 0.12 {
			pollution = 0.12
		}
	}

	res := Result{Mode: m, SFMThroughputFactor: 1}
	for _, p := range profiles {
		slow := 1.0
		slow += p.MemBoundShare * latencyBlowup
		slow += p.MemBoundShare * lockFrac / (1 - lockFrac)
		slow += p.LLCSensitivity * pollution
		res.Slowdowns = append(res.Slowdowns, slow)
	}

	// SFM throughput: only the CPU implementation competes for the
	// channels, so only it degrades (§8: "the SFM throughput degrades
	// by 5~20%" for Baseline-CPU). Its slowdown comes from the
	// latency its own memory accesses suffer under the co-runners'
	// traffic, weighted by how memory-bound the swap path is.
	if m == BaselineCPU {
		utilAlone := sfmDemand / peak
		sfmBlowup := queueFactor(utilWith)/queueFactor(utilAlone) - 1
		res.SFMThroughputFactor = 1 / (1 + sys.SFMMemBoundShare*sfmBlowup)
	}
	return res, nil
}
