package main

import (
	"fmt"
	"math/rand"
	"time"

	"xfm/internal/compress"
	"xfm/internal/corpus"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/xfm"
)

// sizes fixes the work of one round. A workload's definition never
// changes with the time budget: a shorter run fits fewer whole rounds.
type sizes struct {
	pages, batch           int     // batch workloads: pages per round, pages per call
	wset, resident, faults int     // demand_single: working set, resident ring, faults per round
	walks                  int     // nma_saturated: retention walks per round
	eccReplayPages         int     // pages the ECC replay covers (ECC time is data-independent)
	setups                 int     // set-ups per run, at least
	setupSeconds           float64 // keep setting up (to maxSetups) until this much time went into it
}

var (
	fullSize  = sizes{pages: 4096, batch: 256, wset: 4096, resident: 512, faults: 2048, walks: 100, eccReplayPages: 1024, setups: 3, setupSeconds: 3}
	smokeSize = sizes{pages: 64, batch: 16, wset: 64, resident: 8, faults: 32, walks: 1, eccReplayPages: 64, setups: 1}
)

const (
	regionBytes = 1 << 30
	shards      = 16
)

// env is everything a set-up may depend on: the seed, the round sizes,
// and the codec decoration (identity unless the run is traced).
type env struct {
	seed int64
	sz   sizes
	wrap func(compress.Codec) compress.Codec
}

func (e env) codec(c compress.Codec) compress.Codec {
	if e.wrap == nil {
		return c
	}
	return e.wrap(c)
}

// instance is one set-up system under test plus its load generator.
type instance interface {
	// round runs one round of fixed work, closed loop on the calling
	// goroutine, and returns the pages it completed.
	round(tr *tracer) int64
	// latencies returns the pooled samples (ns) behind swapout_p50_us
	// and swapin_p50_us.
	latencies() (out, in []int64)
	// snapshot writes every deterministic metric as of now.
	snapshot(m metrics)
	// hostMetrics writes the workload's own host-time metrics, and the
	// sample counts behind them, given the wall time of one quiet round
	// (see quietPct).
	hostMetrics(m metrics, samples map[string]int, quietRoundNs float64)
	// counts returns operations attempted and failed since set-up.
	counts() (attempted, failed int64)
	// replay measures the layers under the last traced round, one at a
	// time, from outside; tracedNs is that round's wall time and tc the
	// codec decorator that watched it. It returns the round's time
	// budget by layer.
	replay(m metrics, tracedNs int64, tc *timingCodec) ([]attribution, error)
	// corpusMs is the corpus-generation share of set-up.
	corpusMs() float64
	close()
}

type workloadDef struct {
	name      string
	why       string
	minRounds int
	setUp     func(env) (instance, error)
}

// workloads is the fixed list later issues refer to by name; the `why`
// strings are repeated in BENCHMARK.json.
var workloads = []workloadDef{
	{
		name:      "xfm_batch",
		why:       "the paper's full path: xdeflate + ECC parity/verify + driver MMIO + NMA window engine, in 256-page batches; every layer works",
		minRounds: 2,
		setUp:     func(e env) (instance, error) { return setUpBatch(e, true) },
	},
	{
		name:      "cpu_batch",
		why:       "the zswap-style CPU baseline on the same pages and batches; ecc, xfm and nma do nothing, so their optimisations must not move it",
		minRounds: 4,
		setUp:     func(e env) (instance, error) { return setUpBatch(e, false) },
	},
	{
		name:      "demand_single",
		why:       "single-page demand faults (Zipf) with FIFO eviction on an unsharded lzfast store that fragments; latency, not throughput; parallel does nothing",
		minRounds: 2,
		setUp:     setUpDemand,
	},
	{
		name:      "nma_saturated",
		why:       "the NMA simulator alone at the Fig. 12 worst-case promotion rate, queue-full and SPM-full paths busy; compress, ecc and sfm do nothing",
		minRounds: 3,
		setUp:     setUpNMA,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mixedCorpus builds the working set: an equal number of 4 KiB pages
// from each of the 16 corpus generators at the seed, shuffled once with
// the seed, so incompressible and zero-heavy pages sit among text.
func mixedCorpus(seed int64, n int) ([][]byte, float64, error) {
	t0 := time.Now()
	names := corpus.Names()
	per := n / len(names)
	if per < 1 {
		return nil, 0, fmt.Errorf("working set of %d pages is smaller than the %d corpus generators", n, len(names))
	}
	pages := make([][]byte, 0, per*len(names))
	for _, name := range names {
		gen, err := corpus.Get(name)
		if err != nil {
			return nil, 0, err
		}
		pages = append(pages, corpus.Pages(gen(seed, per*sfm.PageSize), sfm.PageSize)...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	return pages, float64(time.Since(t0).Nanoseconds()) / 1e6, nil
}

func nmaConfig() nma.Config { return nma.DefaultConfig(dram.Device32Gb) }

func mapping() memctrl.Mapping { return memctrl.SkylakeMapping(4, 2, dram.Device32Gb) }

// pageGroup is the refresh group xfm.Backend derives for a page id (its
// unexported pageGroup over localAddr; with the region based at 0 and
// ids below regionBytes/PageSize the region address is the same), from
// the public mapping API, so the submit replay issues the very requests
// the traced round did.
func pageGroup(m memctrl.Mapping, id sfm.PageID) int {
	addr := int64(id) * sfm.PageSize % m.TotalBytes()
	return m.Device.RowRefreshGroup(m.Decompose(addr).Row)
}

// nmaCall is one driver interaction of a traced round: the sim time the
// backend advanced to, then the requests it submitted there.
type nmaCall struct {
	now  dram.Ps
	reqs []nma.Request
}

// callFor builds the driver interaction of a swap call that offloads
// ids. (A demand swap-in only advances the clock: nmaCall{now: now}.)
func callFor(m memctrl.Mapping, now dram.Ps, kind nma.OpKind, ids ...sfm.PageID) nmaCall {
	c := nmaCall{now: now}
	for _, id := range ids {
		g := pageGroup(m, id)
		c.reqs = append(c.reqs, nma.Request{Kind: kind, SrcGroup: g, DstGroup: g, Arrive: now})
	}
	return c
}

// xfmSnapshot writes the deterministic metrics an xfm.Backend exposes.
func xfmSnapshot(m metrics, x *xfm.Backend) {
	st := x.Stats()
	m["cpu_fallback_rate"] = ratio(float64(st.Fallbacks), float64(st.Offloads+st.Fallbacks))
	m["xfm.offloads"] = float64(st.Offloads)
	m["xfm.fallbacks"] = float64(st.Fallbacks)
	m["xfm.spm_syncs"] = float64(x.SPMSyncs())
	reads, writes, _ := x.Driver().MMIOStats()
	m["xfm.mmio_reads"] = float64(reads)
	m["xfm.mmio_writes"] = float64(writes)
	_, corrected, bad := x.ECCStats()
	m["ecc.corrected_words"] = float64(corrected)
	m["ecc.uncorrectable_words"] = float64(bad)
	nmaSnapshot(m, x.Driver().NMAStats(), x.Driver().Sim().Config())
}

// nmaSnapshot writes the sim-time metrics of one nma.Sim.
func nmaSnapshot(m metrics, st nma.Stats, cfg nma.Config) {
	trefi := float64(cfg.Timings.TREFI)
	m["offload_latency_mean_trefi"] = ratio(float64(st.SumLatencyPs), float64(st.Completed)*trefi)
	m["conditional_fraction"] = st.ConditionalFraction()
	m["nma.submitted"] = float64(st.Submitted)
	m["nma.completed"] = float64(st.Completed)
	m["nma.fallbacks"] = float64(st.Fallbacks)
	m["nma.busy_window_fraction"] = st.BusyWindowFraction()
	m["nma.slot_utilization"] = st.SlotUtilization(cfg.AccessesPerTRFC + cfg.RandomPerTRFC)
	m["nma.max_spm_occupancy_bytes"] = float64(st.MaxSPMOccupancy)
	m["nma.max_latency_trefi"] = float64(st.MaxLatencyPs) / trefi
}

// sfmSnapshot writes the deterministic metrics of the SFM store; peak
// is the Stats() taken at the round's peak occupancy.
func sfmSnapshot(m metrics, now, peak sfm.BackendStats) {
	m["compression_ratio"] = peak.CompressionRatio()
	m["host_cpu_cycles_per_page"] = ratio(now.CPUCycles, float64(now.SwapOuts+now.SwapIns))
	m["zsmalloc.utilization"] = peak.Region.Utilization()
	m["zsmalloc.compact_bytes_moved"] = float64(now.Region.CompactedBytes)
	m["sfm.same_filled_pages"] = float64(now.SameFilledPages)
	m["sfm.incompressible_pages"] = float64(now.IncompressiblePages)
	m["sfm.compact_on_full"] = float64(now.CompactOnFull)
}
