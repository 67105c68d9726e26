package experiments

import (
	"fmt"
	"sort"

	"xfm/internal/contention"
	"xfm/internal/stats"
	"xfm/internal/workload"
)

// Fig11Result holds the co-run outcomes for all three SFM
// implementations.
type Fig11Result struct {
	Profiles []workload.AntagonistProfile
	Results  map[contention.Mode]contention.Result
}

// Fig11 reproduces the interference experiment (§8): eight
// memory-intensive workloads co-run with a 512 GB SFM at a 14%
// promotion rate under Baseline-CPU, Host-Lockout-NMA, and XFM.
func Fig11() *Fig11Result {
	sys := contention.DefaultSystem()
	profiles := workload.SPECLikeProfiles()
	traffic := contention.SFMTraffic{
		SwapGBps:         512 * 0.14 / 60,
		CompressionRatio: 2.0,
	}
	res := &Fig11Result{
		Profiles: profiles,
		Results:  map[contention.Mode]contention.Result{},
	}
	for _, m := range contention.Modes() {
		r, err := contention.CoRun(sys, profiles, traffic, m)
		if err != nil {
			panic(err)
		}
		res.Results[m] = r
	}
	return res
}

// Table renders the figure.
func (r *Fig11Result) Table() *stats.Table {
	t := stats.NewTable(
		"Fig. 11 — SPEC × SFM co-run (512 GB SFM, 14% promotion); runtime relative to solo",
		"workload", "Baseline-CPU", "Host-Lockout-NMA", "XFM")
	for i, p := range r.Profiles {
		t.AddRow(p.Name,
			fmt.Sprintf("%.3f", r.Results[contention.BaselineCPU].Slowdowns[i]),
			fmt.Sprintf("%.3f", r.Results[contention.HostLockoutNMA].Slowdowns[i]),
			fmt.Sprintf("%.3f", r.Results[contention.XFM].Slowdowns[i]))
	}
	t.AddRow("", "", "", "")
	t.AddRow("SFM throughput factor",
		fmt.Sprintf("%.3f (paper: 0.80-0.95)", r.Results[contention.BaselineCPU].SFMThroughputFactor),
		fmt.Sprintf("%.3f", r.Results[contention.HostLockoutNMA].SFMThroughputFactor),
		fmt.Sprintf("%.3f", r.Results[contention.XFM].SFMThroughputFactor))
	lo, hi := GainBand(MixSweep())
	t.AddRow("combined gain across mixes",
		fmt.Sprintf("%.0f%%-%.0f%%", lo*100, hi*100), "(abstract: 5-27%)", "")
	return t
}

// CombinedImprovement returns the improvement in combined co-running
// performance of XFM over the given mode: the abstract's "5~27%
// improvement in the combined performance of co-running applications"
// compares XFM with the CPU and lockout designs across job mixes.
func (r *Fig11Result) CombinedImprovement(over contention.Mode) float64 {
	// Combined performance = throughput of the SPEC mix × SFM
	// throughput (the paper notes SFM throughput loss multiplies into
	// job throughput).
	perf := func(res contention.Result) float64 {
		appPerf := 0.0
		for _, s := range res.Slowdowns {
			appPerf += 1 / s
		}
		appPerf /= float64(len(res.Slowdowns))
		return appPerf * res.SFMThroughputFactor
	}
	return perf(r.Results[contention.XFM])/perf(r.Results[over]) - 1
}

// Sec32Result is the §3.2 motivating antagonist experiment.
type Sec32Result struct {
	MaxRuntimeIncrease float64 // paper: up to 7.5%
	AntagonistLoss     float64 // paper: more than 5.0%
	PerWorkload        []float64
	Profiles           []workload.AntagonistProfile
}

// Sec32 reproduces §3.2's measurement: 8 LLC/memory-sensitive
// workloads co-run with two processes continuously compressing and
// decompressing 4 KiB pages.
func Sec32() *Sec32Result {
	sys := contention.DefaultSystem()
	profiles := workload.SPECLikeProfiles()
	// Two antagonist processes at software-codec speed ≈ 1 GB/s each.
	tr := contention.SFMTraffic{SwapGBps: 2.0, CompressionRatio: 2.0}
	r, err := contention.CoRun(sys, profiles, tr, contention.BaselineCPU)
	if err != nil {
		panic(err)
	}
	return &Sec32Result{
		MaxRuntimeIncrease: r.MaxSlowdown() - 1,
		AntagonistLoss:     1 - r.SFMThroughputFactor,
		PerWorkload:        r.Slowdowns,
		Profiles:           profiles,
	}
}

// Table renders the experiment.
func (r *Sec32Result) Table() *stats.Table {
	t := stats.NewTable(
		"§3.2 — SPEC co-run with two (de)compression antagonists",
		"workload", "runtime increase")
	for i, p := range r.Profiles {
		t.AddRow(p.Name, pct(r.PerWorkload[i]-1))
	}
	t.AddRow("", "")
	t.AddRow("max runtime increase", pct(r.MaxRuntimeIncrease)+" (paper: up to 7.5%)")
	t.AddRow("antagonist throughput loss", pct(r.AntagonistLoss)+" (paper: > 5.0%)")
	return t
}

// MixImprovement is XFM's combined-performance gain for one job mix
// against one alternative.
type MixImprovement struct {
	Mix  string
	Over contention.Mode
	Gain float64
}

// MixSweep evaluates XFM's combined co-run improvement across several
// job-mix configurations (§8: "The job mix configurations include
// multiple SPEC applications co-running on separate CPUs"), against
// both Baseline-CPU and Host-Lockout-NMA. The abstract's "5~27%
// improvement in the combined performance of co-running applications"
// is the spread of these gains.
func MixSweep() []MixImprovement {
	sys := contention.DefaultSystem()
	all := workload.SPECLikeProfiles()
	mixes := map[string][]workload.AntagonistProfile{
		"all-8":      all,
		"bw-heavy":   {all[1], all[5], all[6], all[7]}, // lbm/cactus/fotonik/roms
		"llc-heavy":  {all[0], all[2], all[4]},         // mcf/omnetpp/xalancbmk
		"light-pair": {all[3], all[2]},
		"single-mcf": {all[0]},
	}
	// Promotion rates bracket the evaluation's realistic operating
	// points (Google's fleet sees ~15%; the co-run experiment uses
	// 14%). Extreme promotion rates drive the lockout design off a
	// cliff and are not part of the reported band.
	rates := []float64{0.05, 0.14, 0.25}

	// Sorted mix order, so the output is deterministic regardless of
	// map iteration.
	mixNames := make([]string, 0, len(mixes))
	for name := range mixes {
		mixNames = append(mixNames, name)
	}
	sort.Strings(mixNames)
	overs := []contention.Mode{contention.BaselineCPU, contention.HostLockoutNMA}
	var out []MixImprovement
	for _, name := range mixNames {
		profiles := mixes[name]
		for _, rate := range rates {
			traffic := contention.SFMTraffic{SwapGBps: 512 * rate / 60, CompressionRatio: 2.0}
			results := map[contention.Mode]contention.Result{}
			for _, m := range contention.Modes() {
				r, err := contention.CoRun(sys, profiles, traffic, m)
				if err != nil {
					panic(err)
				}
				results[m] = r
			}
			f := &Fig11Result{Profiles: profiles, Results: results}
			for _, over := range overs {
				out = append(out, MixImprovement{
					Mix:  fmt.Sprintf("%s@%.0f%%", name, rate*100),
					Over: over,
					Gain: f.CombinedImprovement(over),
				})
			}
		}
	}
	return out
}

// GainBand returns the (min, max) combined improvement across a sweep.
func GainBand(ms []MixImprovement) (lo, hi float64) {
	if len(ms) == 0 {
		return 0, 0
	}
	lo, hi = ms[0].Gain, ms[0].Gain
	for _, m := range ms {
		if m.Gain < lo {
			lo = m.Gain
		}
		if m.Gain > hi {
			hi = m.Gain
		}
	}
	return lo, hi
}
