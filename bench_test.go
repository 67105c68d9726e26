// Package xfmbench holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper (the per-experiment
// index in DESIGN.md), plus ablation benchmarks for the design
// decisions D1–D5.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the experiment's headline numbers as custom
// metrics so `bench_output.txt` doubles as a results log.
package xfmbench

import (
	"testing"

	"xfm/internal/compress"
	"xfm/internal/contention"
	"xfm/internal/corpus"
	"xfm/internal/costmodel"
	"xfm/internal/dram"
	"xfm/internal/energy"
	"xfm/internal/experiments"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/workload"
	"xfm/internal/xfm"
)

// BenchmarkFig1BandwidthUtilization regenerates Fig. 1: CPU-SFM channel
// bandwidth vs rank count against XFM's zero-channel-traffic design.
func BenchmarkFig1BandwidthUtilization(b *testing.B) {
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig1()
	}
	top := last.Rows[len(last.Rows)-1]
	b.ReportMetric(top.CPUSFMChannelGBps, "cpuSFM-GB/s@32ranks")
}

// BenchmarkFig3CostModel regenerates Fig. 3: the DFM-vs-SFM cost and
// carbon sweep (EQ1–EQ5).
func BenchmarkFig3CostModel(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig3()
	}
	b.ReportMetric(last.CostBreakEvenDRAM100, "costBE-years(paper:8.5)")
	b.ReportMetric(last.EmissionBreakEvenPMem20, "pmemEmissionBE-years")
}

// BenchmarkFig8CompressionRatio regenerates Fig. 8: multi-channel-mode
// compression ratios across the 16 corpora.
func BenchmarkFig8CompressionRatio(b *testing.B) {
	var last *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig8(true)
	}
	b.ReportMetric(last.MeanSavingsRetention[2], "savings2DIMM(paper:~.95)")
	b.ReportMetric(last.MeanSavingsRetention[4], "savings4DIMM(paper:~.86)")
}

// BenchmarkTable1DeviceConfigs regenerates Table 1 from the device
// models and validates the geometry.
func BenchmarkTable1DeviceConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range dram.Table1Devices() {
			if err := d.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(dram.Device32Gb.TRFC/dram.Nanosecond), "tRFC32Gb-ns")
}

// BenchmarkFig11Interference regenerates Fig. 11: the three-way co-run
// comparison.
func BenchmarkFig11Interference(b *testing.B) {
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig11()
	}
	b.ReportMetric(last.Results[contention.BaselineCPU].MaxSlowdown(), "baseMaxSlowdown")
	b.ReportMetric(last.Results[contention.HostLockoutNMA].MaxSlowdown(), "lockMaxSlowdown")
	b.ReportMetric(last.CombinedImprovement(contention.BaselineCPU)*100, "xfmGain%-vs-base")
	b.ReportMetric(last.CombinedImprovement(contention.HostLockoutNMA)*100, "xfmGain%-vs-lock")
}

// BenchmarkFig12CPUFallbacks regenerates Fig. 12: the SPM ×
// accesses/tRFC × promotion sensitivity grid.
func BenchmarkFig12CPUFallbacks(b *testing.B) {
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig12(true)
	}
	for _, c := range last.Cells {
		switch {
		case c.PromotionRate != 1.0:
		case c.SPMBytes == 8<<20 && c.AccessesPerTRFC == 3:
			b.ReportMetric(c.FallbackRate*100, "fallback%@8MB3acc100")
			b.ReportMetric(c.ConditionalFraction*100, "cond%@8MB3acc100")
		case c.SPMBytes == 1<<20 && c.AccessesPerTRFC == 1:
			b.ReportMetric(c.FallbackRate*100, "fallback%@1MB1acc100")
		}
	}
}

// BenchmarkTable2FPGAResources regenerates Table 2.
func BenchmarkTable2FPGAResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := energy.Table2FPGAResources(); len(rows) != 3 {
			b.Fatal("bad table")
		}
	}
	b.ReportMetric(energy.Table2FPGAResources()[0].Percent, "LUT%")
}

// BenchmarkTable3PowerBreakdown regenerates Table 3.
func BenchmarkTable3PowerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if p := energy.Table3Power(); p.TotalWatts == 0 {
			b.Fatal("bad table")
		}
	}
	b.ReportMetric(energy.Table3Power().TotalWatts, "totalW")
}

// BenchmarkSec32Antagonist regenerates the §3.2 motivating experiment.
func BenchmarkSec32Antagonist(b *testing.B) {
	var last *experiments.Sec32Result
	for i := 0; i < b.N; i++ {
		last = experiments.Sec32()
	}
	b.ReportMetric(last.MaxRuntimeIncrease*100, "maxRuntime%+(paper:≤7.5)")
	b.ReportMetric(last.AntagonistLoss*100, "antagonistLoss%(paper:>5)")
}

// BenchmarkNMAEnergy regenerates the §8 access-energy study.
func BenchmarkNMAEnergy(b *testing.B) {
	var last *experiments.EnergyResult
	for i := 0; i < b.N; i++ {
		last = experiments.EnergySaving(true)
	}
	b.ReportMetric(last.MeanSaving*100, "meanSaving%(paper:10.1)")
	b.ReportMetric(last.DataMovementSaving*100, "dataMove%(paper:69)")
}

// BenchmarkCapacityHeadroom regenerates the §8 capacity claim (up to
// 1 TB without fallbacks).
func BenchmarkCapacityHeadroom(b *testing.B) {
	var last *experiments.CapacityResult
	for i := 0; i < b.N; i++ {
		last = experiments.Capacity(true)
	}
	b.ReportMetric(last.MaxCleanCapacityGB, "maxCleanGB(paper:1024)")
}

// BenchmarkEmulatorFullStack regenerates the §7 full-stack emulation.
func BenchmarkEmulatorFullStack(b *testing.B) {
	var last *experiments.EmulatorResult
	for i := 0; i < b.N; i++ {
		last = experiments.Emulator()
	}
	b.ReportMetric(last.XFMOffloadRate*100, "offload%")
	b.ReportMetric(last.CPUCycleReduction*100, "cycleCut%")
}

// --- Ablation benchmarks (design decisions D1–D5 in DESIGN.md) ---

// ablationSim runs the standard Fig. 12 workload shape (512 GB over
// 10 ranks) against a custom NMA config. dstAhead controls how far
// ahead of the refresh counter the allocator may place destinations
// (8192 ≈ no placement intelligence).
func ablationSim(cfg nma.Config, seed int64, dstAhead int, promotion float64) nma.Stats {
	sim := nma.NewSim(cfg)
	traffic := workload.PromotionTraffic{
		SFMCapacityGB:  512,
		PromotionRate:  promotion,
		Ranks:          10,
		PageBytes:      cfg.PageBytes,
		Groups:         cfg.Device.RefreshGroups(),
		Seed:           seed,
		PagesPerGroup:  2,
		RestartProb:    1.0 / 256,
		DstAheadGroups: dstAhead,
		TREFI:          cfg.Timings.TREFI,
	}
	windows := 2 * 8192
	dur := dram.Ps(windows) * cfg.Timings.TREFI
	sim.RunWindows(windows, traffic.Stream(dur))
	return sim.Stats()
}

func ablationConfig() nma.Config {
	cfg := nma.DefaultConfig(dram.Device32Gb)
	cfg.SPMBytes = 8 << 20
	cfg.AccessesPerTRFC = 3
	cfg.QueueDepth = 16384
	return cfg
}

// BenchmarkAblationD1RandomOnly disables conditional accesses (D1):
// without refresh-schedule matching, the single random slot per window
// must carry all traffic.
func BenchmarkAblationD1RandomOnly(b *testing.B) {
	var cond, rand nma.Stats
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig()
		cond = ablationSim(cfg, 1, 5000, 1.0)
		cfg.AccessesPerTRFC = 0 // random-only interface
		cfg.RandomPerTRFC = 1
		rand = ablationSim(cfg, 1, 5000, 1.0)
	}
	b.ReportMetric(cond.FallbackRate()*100, "fallback%-withCond")
	b.ReportMetric(rand.FallbackRate()*100, "fallback%-randomOnly")
}

// BenchmarkAblationD4DstPlacement compares refresh-aware destination
// placement (D4) against uniform destination slots: the aware
// allocator keeps completed pages' SPM residency short.
func BenchmarkAblationD4DstPlacement(b *testing.B) {
	var aware, uniform nma.Stats
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig()
		aware = ablationSim(cfg, 2, 1024, 0.5)
		uniform = ablationSim(cfg, 2, 8192, 0.5)
	}
	wcond := func(s nma.Stats) float64 {
		if s.WriteCond+s.WriteRand == 0 {
			return 0
		}
		return float64(s.WriteCond) / float64(s.WriteCond+s.WriteRand) * 100
	}
	b.ReportMetric(wcond(aware), "writeCond%-aware")
	b.ReportMetric(wcond(uniform), "writeCond%-uniform")
	b.ReportMetric(aware.MeanLatencyMs(), "lat-ms-aware")
	b.ReportMetric(uniform.MeanLatencyMs(), "lat-ms-uniform")
}

// BenchmarkAblationD5DemandOffload compares the default CPU-fallback
// swap-in policy (D5) against offloading demand faults to the NMA:
// demand faults served by the NMA wait ≥ 2×tREFI, so the default
// policy trades host cycles for latency.
func BenchmarkAblationD5DemandOffload(b *testing.B) {
	run := func(offloadDemand bool) (float64, float64) {
		sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
		driver := xfm.NewDriver(sim)
		backend, err := xfm.NewBackend(compress.NewLZFast(), 1<<30,
			driver, memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
		if err != nil {
			b.Fatal(err)
		}
		heap := sfm.NewHeap(backend)
		var ids []sfm.PageID
		for i := 0; i < 128; i++ {
			ids = append(ids, heap.Alloc(0, corpus.KeyValue(int64(i), sfm.PageSize)))
		}
		now := dram.Ps(0)
		for _, id := range ids {
			now += 20 * dram.Microsecond
			heap.SwapOut(now, id)
		}
		for _, id := range ids {
			now += 20 * dram.Microsecond
			if offloadDemand {
				heap.Prefetch(now, id)
			} else {
				heap.Touch(now, id)
			}
		}
		driver.AdvanceTo(now + 200*dram.Millisecond)
		st := backend.Stats()
		ns := driver.NMAStats()
		return st.CPUCycles, ns.MeanLatencyMs()
	}
	var cpuCycles, offLatency float64
	for i := 0; i < b.N; i++ {
		cpuCycles, _ = run(false)
		_, offLatency = run(true)
	}
	b.ReportMetric(cpuCycles, "hostCycles-demandCPU")
	b.ReportMetric(offLatency, "nmaLatency-ms-offloaded")
}

// --- Batched offload pipeline benchmarks ---

// batchPages builds n compressible pages keyed by id.
func batchPages(n int) []sfm.PageOut {
	out := make([]sfm.PageOut, n)
	for i := range out {
		out[i] = sfm.PageOut{ID: sfm.PageID(i), Data: corpus.KeyValue(int64(i), sfm.PageSize)}
	}
	return out
}

// benchBatchSwapOut measures batched swap-out throughput through the
// given backend constructor, reporting pages/s. Each iteration swaps a
// 256-page batch out and back in, so the store returns to empty and
// iterations are identical.
func benchBatchSwapOut(b *testing.B, mk func() sfm.Backend) {
	const npages = 256
	outs := batchPages(npages)
	ins := make([]sfm.PageIn, npages)
	for i := range ins {
		ins[i] = sfm.PageIn{ID: outs[i].ID, Dst: make([]byte, sfm.PageSize)}
	}
	backend := mk()
	b.ReportAllocs()
	b.SetBytes(npages * sfm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sfm.FirstError(backend.SwapOutBatch(0, outs)); err != nil {
			b.Fatal(err)
		}
		if err := sfm.FirstError(backend.SwapInBatch(0, ins, false)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*npages/b.Elapsed().Seconds(), "pages/s")
}

// BenchmarkBatchSwapOutSerial is the single-core reference: a plain
// CPU backend executing the batch as a loop.
func BenchmarkBatchSwapOutSerial(b *testing.B) {
	benchBatchSwapOut(b, func() sfm.Backend {
		return sfm.NewCPUBackend(compress.NewXDeflate(), 0)
	})
}

// BenchmarkBatchSwapOutParallel runs the same batch through the
// sharded backend with GOMAXPROCS workers. On a multi-core runner the
// pages/s metric should exceed the serial reference by ≈ the core
// count; on a single-core runner the two are equal (the worker pool
// degrades to the inline serial path).
func BenchmarkBatchSwapOutParallel(b *testing.B) {
	benchBatchSwapOut(b, func() sfm.Backend {
		return sfm.NewShardedBackend(compress.NewXDeflate(), 0, 16, 0)
	})
}

// BenchmarkBatchXFMParallel drives the full XFM backend (driver, ECC,
// NMA accounting) with a sharded store.
func BenchmarkBatchXFMParallel(b *testing.B) {
	benchBatchSwapOut(b, func() sfm.Backend {
		sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
		backend, err := xfm.NewShardedBackend(compress.NewXDeflate(), 1<<30, 16, 0,
			xfm.NewDriver(sim), memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
		if err != nil {
			b.Fatal(err)
		}
		return backend
	})
}

// BenchmarkBatchCompressHotPath pins the zero-allocation compress hot
// path: one page through a warmed Scratch (allocs/op should be 0).
func BenchmarkBatchCompressHotPath(b *testing.B) {
	page := corpus.KeyValue(7, sfm.PageSize)
	s := compress.GetScratch()
	defer s.Release()
	c := compress.NewXDeflate()
	s.Compress(c, page) // warm
	b.ReportAllocs()
	b.SetBytes(sfm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Compress(c, page)
	}
}

// BenchmarkCostModelSweep measures the analytical model's throughput
// (it backs interactive tools).
func BenchmarkCostModelSweep(b *testing.B) {
	p := costmodel.DefaultParams()
	for i := 0; i < b.N; i++ {
		for y := 0.0; y < 10; y += 0.25 {
			_ = p.SFMCost(y)
			_ = p.DFMCost(costmodel.DRAM, y)
			_ = p.SFMEmission(y)
			_ = p.DFMEmission(costmodel.PMem, y)
		}
	}
}
