package xfmbench

import (
	"testing"

	"xfm/internal/contention"
	"xfm/internal/experiments"

	"xfm/internal/compress"
	"xfm/internal/dataframe"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/memsim"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/trace"
	"xfm/internal/workload"
	"xfm/internal/xfm"
)

// TestEndToEndMultiChannelAnalytics drives the whole stack at once: a
// DataFrame over a far-memory heap whose backend is the sharded XFM
// backend that benchmark/ and examples/ run (sharded store, side-band
// ECC, driver, NMA). Content integrity, swap accounting and offload
// accounting must all hold together.
func TestEndToEndMultiChannelAnalytics(t *testing.T) {
	driver := xfm.NewDriver(nma.NewSim(nma.DefaultConfig(dram.Device32Gb)))
	backend, err := xfm.NewShardedBackend(compress.NewXDeflate(), 1<<28, 4, 0,
		driver, memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	heap := sfm.NewHeap(backend)
	frame := dataframe.New(heap)

	n := 4096
	keys, vals := make([]int64, n), make([]int64, n)
	want := map[int64]int64{}
	for i := range vals {
		keys[i], vals[i] = int64(i%4), int64(i*3)
		want[keys[i]] += vals[i]
	}
	if _, err := frame.AddInt64(0, "k", keys); err != nil {
		t.Fatal(err)
	}
	if _, err := frame.AddInt64(0, "v", vals); err != nil {
		t.Fatal(err)
	}

	// Demote both columns, then query through compressed far memory.
	demoted := 0
	for _, name := range []string{"k", "v"} {
		d, err := frame.Demote(dram.Millisecond, name)
		if err != nil {
			t.Fatal(err)
		}
		demoted += d
	}
	if demoted == 0 {
		t.Fatal("nothing demoted")
	}
	got, err := frame.GroupSumInt64(2*dram.Millisecond, "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("group %d through far memory = %d, want %d", k, got[k], w)
		}
	}

	// Every demoted page went out once and faulted back once.
	st, hs := backend.Stats(), heap.Stats()
	if st.SwapOuts != int64(demoted) || st.SwapIns != int64(demoted) || hs.DemandFaults != int64(demoted) {
		t.Errorf("demoted %d pages: backend %d outs / %d ins, heap %d demand faults",
			demoted, st.SwapOuts, st.SwapIns, hs.DemandFaults)
	}
	if _, _, bad := backend.ECCStats(); bad != 0 {
		t.Errorf("%d uncorrectable ECC words on a fault-free run", bad)
	}

	// The NMA saw the swap-out offloads; advancing time completes them.
	driver.AdvanceTo(2 * dram.Second)
	if ns := driver.NMAStats(); ns.Submitted == 0 || ns.Completed != ns.Submitted-ns.Fallbacks {
		t.Errorf("NMA stats after drain: %+v", ns)
	}
}

// TestEndToEndTraceToTimingModel feeds a generated web-front-end trace
// through the DRAM timing model (the cmd/dramsim path) and checks the
// simulator digests it with plausible outputs.
func TestEndToEndTraceToTimingModel(t *testing.T) {
	w := workload.DefaultWebFrontend()
	w.Queries = 800
	res, err := w.Run(sfm.NewCPUBackend(compress.NewLZFast(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
	ctl := memctrl.NewController(
		memctrl.SkylakeMapping(4, 2, dram.Device32Gb),
		dram.DDR5_3200().WithTRFC(dram.Device32Gb.TRFC))
	var last dram.Ps
	for i, r := range res.Trace {
		kind := dram.Read
		if r.Op == trace.SwapOut {
			kind = dram.Write
		}
		done := ctl.Submit(memctrl.Request{
			Addr: (int64(i) * 4096) % (ctl.Map.TotalBytes() - 4096),
			Size: int(r.Bytes), Kind: kind, At: r.AtPs,
		})
		if done > last {
			last = done
		}
	}
	read, written := ctl.TotalBytes()
	if read == 0 || written == 0 {
		t.Fatalf("timing model moved %d read / %d written bytes", read, written)
	}
	st := ctl.Stream(0)
	if st.MeanLatencyNs() <= 0 {
		t.Error("no latency measured")
	}
}

// TestEndToEndContentionStory checks the three-layer consistency of the
// headline result: the analytic model, the DRAM simulation, and the
// NMA scheduler all agree that XFM removes the swap traffic's cost.
func TestEndToEndContentionStory(t *testing.T) {
	// Layer 1 (analytic): XFM co-run leaves workloads at 1.0.
	if got := experiments.Fig11().Results[contention.XFM].MaxSlowdown(); got > 1.005 {
		t.Errorf("analytic XFM slowdown = %.3f", got)
	}
	// Layer 2 (simulation): removing the SFM stream restores victim
	// latency (checked in memsim tests; here we just confirm the
	// mechanism exists end to end).
	sys := memsim.DefaultSystem()
	victim := memsim.StreamSpec{ID: 1, Name: "victim", Pattern: memsim.Random,
		RateGBps: 4, ReqBytes: 128, Base: 0, Size: 1 << 30, Seed: 1}
	sfmStream := memsim.StreamSpec{ID: 2, Name: "sfm", Pattern: memsim.SwapBursts,
		RateGBps: 4, ReqBytes: 128, Base: 4 << 30, Size: 1 << 30, WriteShare: 0.5, Seed: 2}
	with, err := sys.Run([]memsim.StreamSpec{victim, sfmStream}, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	without, err := sys.Run([]memsim.StreamSpec{victim}, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if with[0].MeanLatencyNs < without[0].MeanLatencyNs {
		t.Error("SFM stream did not cost the victim anything in simulation")
	}
	// Layer 3 (NMA): the side channel absorbs the same traffic with
	// zero fallbacks at the paper's recommended configuration.
	cfg := nma.DefaultConfig(dram.Device32Gb)
	cfg.SPMBytes = 8 << 20
	cfg.AccessesPerTRFC = 3
	cfg.QueueDepth = 16384
	sim := nma.NewSim(cfg)
	tr := workload.PromotionTraffic{
		SFMCapacityGB: 512, PromotionRate: 0.14, Ranks: 10,
		PageBytes: 4096, Groups: 8192, Seed: 3,
		PagesPerGroup: 2, RestartProb: 1.0 / 256,
		DstAheadGroups: 5000, TREFI: cfg.Timings.TREFI,
	}
	windows := 8192
	sim.RunWindows(windows, tr.Stream(dram.Ps(windows)*cfg.Timings.TREFI))
	if rate := sim.Stats().FallbackRate(); rate > 0.001 {
		t.Errorf("NMA fallback rate at the Fig. 11 operating point = %.4f", rate)
	}
}
