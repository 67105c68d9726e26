package main

import (
	"time"

	"xfm/internal/dram"
	"xfm/internal/nma"
	"xfm/internal/workload"
)

// nmaInst drives nma_saturated: the NMA simulator alone under the
// Fig. 12 traffic shape at a 100 %/min promotion rate.
//
// Every round builds a fresh nma.Sim (SPM and queues start empty —
// stated, per the hardware-simulation sheet) and replays the same
// seeded request stream through RunWindows for `walks` retention walks,
// so every round must end in identical nma.Stats: a determinism check
// that costs nothing. The queue is deepened to 16384 entries so the
// SPM-full back-pressure path runs for a long time before the
// queue-full one does.
type nmaInst struct {
	cfg     nma.Config
	traffic workload.PromotionTraffic
	windows int
	walkPs  dram.Ps

	walkNs           []int64 // host time per simulated retention walk
	rounds, disagree int64
	first, last      nma.Stats
}

func setUpNMA(e env) (instance, error) {
	cfg := nmaConfig()
	cfg.QueueDepth = 16384
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	groups := cfg.Device.RefreshGroups()
	n := &nmaInst{
		cfg: cfg,
		traffic: workload.PromotionTraffic{
			SFMCapacityGB:  512,
			PromotionRate:  1.0,
			Ranks:          10,
			PageBytes:      cfg.PageBytes,
			Groups:         groups,
			Seed:           e.seed,
			PagesPerGroup:  2,
			RestartProb:    1.0 / 256,
			DstAheadGroups: 5000,
			TREFI:          cfg.Timings.TREFI,
		},
		windows: e.sz.walks * groups,
		walkPs:  dram.Ps(groups) * cfg.Timings.TREFI,
	}
	if err := n.traffic.Validate(); err != nil {
		return nil, err
	}
	n.round(nil)
	n.walkNs = n.walkNs[:0]
	return n, nil
}

func (n *nmaInst) round(tr *tracer) int64 {
	sim := nma.NewSim(n.cfg)
	next := n.traffic.Stream(dram.Ps(n.windows) * n.cfg.Timings.TREFI)
	// The stream is pulled just ahead of the window clock, so the host
	// time between two arrivals a retention walk apart is the host time
	// that walk took to simulate.
	boundary := n.walkPs
	last := time.Now()
	walk := func(now time.Time) {
		n.walkNs = append(n.walkNs, now.Sub(last).Nanoseconds())
		tr.leaf("walk", "nma", last, now)
		last = now
	}
	r := tr.begin("round", "bench")
	s := tr.begin("RunWindows", "nma")
	sim.RunWindows(n.windows, func() (nma.Request, bool) {
		req, ok := next()
		if ok && req.Arrive >= boundary {
			walk(time.Now())
			boundary += n.walkPs
		}
		return req, ok
	})
	walk(time.Now())
	tr.end(s)
	tr.end(r)

	n.last = sim.Stats()
	n.rounds++
	if n.rounds == 1 {
		n.first = n.last
	} else if n.last != n.first {
		n.disagree++
	}
	return n.last.Submitted
}

func (n *nmaInst) latencies() (out, in []int64) { return n.walkNs, n.walkNs }

// counts: an operation here is a round, failed when its nma.Stats
// differ in any field from the first round's.
func (n *nmaInst) counts() (attempted, failed int64) { return n.rounds, n.disagree }

func (n *nmaInst) corpusMs() float64 { return 0 }

func (n *nmaInst) hostMetrics(m metrics, _ map[string]int, quietRoundNs float64) {
	m["sim_windows_per_s"] = float64(n.windows) / (quietRoundNs / 1e9)
}

func (n *nmaInst) snapshot(m metrics) {
	m["cpu_fallback_rate"] = n.last.FallbackRate()
	nmaSnapshot(m, n.last, n.cfg)
}

func (n *nmaInst) close() {}

func (n *nmaInst) replay(m metrics, tracedNs int64, _ *timingCodec) ([]attribution, error) {
	m.offPath("compression_ratio", "host_cpu_cycles_per_page", "demand_swapin_p95_us",
		"corpus.", "compress.", "ecc.", "zsmalloc.", "rbtree.", "sfm.", "parallel.", "xfm.", "host.copy_us_per_page")
	// The request generator alone; what is left of the round is the sim.
	var reqs int64
	genNs := medianNs(func() int64 {
		next := n.traffic.Stream(dram.Ps(n.windows) * n.cfg.Timings.TREFI)
		reqs = 0
		t0 := time.Now()
		for _, ok := next(); ok; _, ok = next() {
			reqs++
		}
		return time.Since(t0).Nanoseconds()
	})
	m["workload.gen_ns_per_req"] = ratio(genNs, float64(reqs))
	simNs := float64(tracedNs) - genNs
	m["nma.host_ns_per_window"] = simNs / float64(n.windows)
	m["nma.host_ns_per_request"] = ratio(simNs, float64(n.last.Submitted))
	replayAdvanceIdle(m, gapWindows)
	m["host.attribution_residual_pct"] = 0
	return []attribution{
		{"workload", genNs / 1e6},
		{"nma", simNs / 1e6},
		{"residual", 0},
	}, nil
}
