package telemetry

import (
	"fmt"
	"regexp"
)

// The metric catalogue: every family of the process-wide registry is
// declared here, exactly once, as the handle its owner records
// through. The constructors below are the only way into the default
// registry, so a registration elsewhere does not compile; what the
// flight recorder samples (DefaultSeriesMetrics), what telemetryck
// requires of a CI artifact (RequiredMetrics, RequiredSeries) and the
// DESIGN §7 table (TestDesignCatalogueTable) are all read off the rows'
// attributes. Private registries (NewRegistry) are not catalogued.

// layer is the package that owns a family; DESIGN §7 groups by it.
type layer string

const (
	layerDRAM     layer = "dram"
	layerFault    layer = "fault"
	layerMemctrl  layer = "memctrl"
	layerNMA      layer = "nma"
	layerParallel layer = "parallel"
	layerSFM      layer = "sfm"
	layerWorkload layer = "workload"
	layerXFM      layer = "xfm"
)

// attrs says which consumers read a row.
type attrs uint8

const (
	// sampled rows are recorded by the default flight recorder: the
	// windowed signals the health rules and xfmtop read. Every one is
	// deterministic under the simulated clock (no wall-time
	// histograms), so sim-domain recordings are bit-identical for a
	// fixed seed at any worker count.
	sampled attrs = 1 << iota
	// requiredMetric rows must appear, with a sample, in every
	// -metrics-out file CI validates (telemetryck -require).
	requiredMetric
	// requiredSeries rows must appear, with a point, in every
	// -timeseries-out file CI validates (telemetryck -require-series).
	requiredSeries
)

// row is one catalogue entry.
type row struct {
	name, kind, help, labelKey string
	buckets                    []float64
	layer                      layer
	attrs                      attrs
}

var (
	catalogue []row
	// metricNameRE is the naming convention: a layer prefix, then
	// lower_snake.
	metricNameRE = regexp.MustCompile(`^(xfm|sfm|nma|dram|memctrl|parallel|fault)_[a-z0-9_]+$`)
)

// declare appends a row. A name off the convention or declared twice
// panics at init.
func declare(l layer, kind, name, help, labelKey string, buckets []float64, a attrs) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric name %q violates %s", name, metricNameRE))
	}
	for _, have := range catalogue {
		if have.name == name {
			panic(fmt.Sprintf("telemetry: metric %q declared twice", name))
		}
	}
	catalogue = append(catalogue, row{name, kind, help, labelKey, buckets, l, a})
}

func counter(l layer, name, help string, a attrs) *Counter {
	declare(l, kindCounter, name, help, "", nil, a)
	return defaultRegistry.Counter(name, help)
}

func gauge(l layer, name, help string, a attrs) *Gauge {
	declare(l, kindGauge, name, help, "", nil, a)
	return defaultRegistry.Gauge(name, help)
}

func gaugeFunc(l layer, name, help string, a attrs, fn func() float64) {
	declare(l, kindGaugeFunc, name, help, "", nil, a)
	defaultRegistry.GaugeFunc(name, help, fn)
}

func histogram(l layer, name, help string, buckets []float64, a attrs) *Histogram {
	declare(l, kindHistogram, name, help, "", buckets, a)
	return defaultRegistry.Histogram(name, help, buckets)
}

func counterVec(l layer, name, help, labelKey string, a attrs) *CounterVec {
	declare(l, kindCounter, name, help, labelKey, nil, a)
	return defaultRegistry.CounterVec(name, help, labelKey)
}

func gaugeVec(l layer, name, help, labelKey string, a attrs) *GaugeVec {
	declare(l, kindGauge, name, help, labelKey, nil, a)
	return defaultRegistry.GaugeVec(name, help, labelKey)
}

func histogramVec(l layer, name, help, labelKey string, buckets []float64, a attrs) *HistogramVec {
	declare(l, kindHistogram, name, help, labelKey, buckets, a)
	return defaultRegistry.HistogramVec(name, help, labelKey, buckets)
}

// namesWith lists the rows carrying attribute a, in catalogue order.
func namesWith(a attrs) []string {
	var out []string
	for _, r := range catalogue {
		if r.attrs&a != 0 {
			out = append(out, r.name)
		}
	}
	return out
}

// DefaultSeriesMetrics is what the default sampler records: the
// sampled rows.
func DefaultSeriesMetrics() []string { return namesWith(sampled) }

// RequiredMetrics is telemetryck's -require default.
func RequiredMetrics() []string { return namesWith(requiredMetric) }

// RequiredSeries is telemetryck's -require-series default.
func RequiredSeries() []string { return namesWith(requiredSeries) }

// SFM: swap counts and the compressibility profile of swapped pages
// (the §3 cost model's inputs), batch fan-out, and per-shard occupancy
// for the sharded store. The counters are bumped on the per-page swap
// paths; at a handful of uncontended atomic adds next to a 4 KiB
// (de)compression they are invisible in profiles.
var (
	SFMSwapOuts = counter(layerSFM, "sfm_swap_outs_total",
		"Pages compressed into far memory (swapOut calls that succeeded).", sampled|requiredMetric)
	SFMSwapIns = counter(layerSFM, "sfm_swap_ins_total",
		"Pages decompressed out of far memory (swapIn calls that succeeded).", sampled)
	SFMSameFilled = counter(layerSFM, "sfm_same_filled_total",
		"Swap-outs stored as a single fill word (zswap's same-filled-page path).", sampled)
	SFMIncompressible = counter(layerSFM, "sfm_incompressible_total",
		"Swap-outs stored raw because compression did not shrink the page.", sampled)
	SFMCompactOnFull = counter(layerSFM, "sfm_compact_on_full_total",
		"Capacity-triggered internal compactions (§6).", 0)
	SFMCompressedPageBytes = histogram(layerSFM, "sfm_compressed_page_bytes",
		"Stored bytes per compressed page (excludes same-filled pages).",
		LinearBuckets(256, 256, 16), sampled)
	SFMBatchPages = histogram(layerSFM, "sfm_batch_pages",
		"Pages per SwapOutBatch/SwapInBatch call into the SFM store.",
		ExpBuckets(1, 2, 13), 0)
	SFMShardBatchPages = histogram(layerSFM, "sfm_shard_batch_pages",
		"Pages routed to one shard by one batch (fan-out balance).",
		ExpBuckets(1, 2, 13), 0)
	SFMShardStoredPages = gaugeVec(layerSFM, "sfm_shard_stored_pages",
		"Pages currently stored per shard of the sharded backend.", "shard", 0)

	// Batch-engine seams (the two-stage pipeline in sfm/engine.go).
	// Stage histograms are observed once per batch phase and lock waits
	// once per shard acquisition, so even with wall-clock reads they
	// are far off the per-page hot path.
	SFMBatchStageNs = histogramVec(layerSFM, "sfm_batch_stage_ns",
		"Wall time per batch pipeline stage (stage_out covers compress+commit, "+
			"gather/decompress_commit are the two swap-in phases).",
		"stage", ExpBuckets(1024, 4, 14), 0)
	SFMShardLockWaitNs = histogram(layerSFM, "sfm_shard_lock_wait_ns",
		"Wall time batch workers spent waiting to acquire a shard lock.",
		ExpBuckets(64, 4, 14), 0)
	SFMBatchPipelineDepth = gauge(layerSFM, "sfm_batch_pipeline_depth",
		"Shards of the in-flight batch still awaiting their commit phase "+
			"(0 when no batch is running).", 0)
)

// Workload: the promotion-rate gauge is updated as the synthetic
// applications run (each cold-scan epoch of the web front-end), so the
// flight recorder sees the §2.1 promotion rate as a trajectory, not
// just the end-of-run figure (TestEmulatorComparison holds that figure
// to the validated band).
var SFMPromotionRate = gauge(layerWorkload, "sfm_promotion_rate",
	"Observed far-memory promotion rate (§2.1): distinct bytes promoted over distinct bytes ever far, so far.",
	sampled|requiredSeries)

// XFM: the control-path cost (MMIO round trips, ioctls, lazy SPM
// resyncs) and the offload-vs-fallback split across every backend in
// the process.
var (
	XFMMMIOReads = counter(layerXFM, "xfm_mmio_reads_total",
		"Driver MMIO register reads (SP capacity, queue depth, completion polls).", 0)
	XFMMMIOWrites = counter(layerXFM, "xfm_mmio_writes_total",
		"Driver MMIO register writes (request submissions, configuration).", 0)
	XFMIoctls = counter(layerXFM, "xfm_ioctls_total",
		"Driver ioctl-surface calls (xfm_paramset and friends).", 0)
	XFMSPMSyncs = counter(layerXFM, "xfm_spm_syncs_total",
		"Completion-counter polls forced by the lazy SPM occupancy bound.", 0)
	XFMOffloads = counter(layerXFM, "xfm_offloads_total",
		"Swap operations the NMA accepted for offload.", sampled|requiredMetric|requiredSeries)
	XFMFallbacks = counter(layerXFM, "xfm_fallbacks_total",
		"Swap operations executed by the CPU (demand faults and NMA back-pressure).", sampled|requiredMetric)
	XFMECCCorrected = counter(layerXFM, "xfm_ecc_corrected_total",
		"Side-band ECC words corrected on swap-in verification.", sampled)
	XFMECCUncorrectable = counter(layerXFM, "xfm_ecc_uncorrectable_total",
		"Side-band ECC words with uncorrectable errors on swap-in verification.", sampled)
	XFMBatchPages = histogram(layerXFM, "xfm_batch_pages",
		"Pages per SwapOutBatch/SwapInBatch call through an XFM backend.",
		ExpBuckets(1, 2, 13), 0)
)

// xfm_fallback_rate is derived at export time; it is the §7 number
// that decides whether the NMA absorbed the swap traffic.
func init() {
	gaugeFunc(layerXFM, "xfm_fallback_rate",
		"CPU fallbacks over all swap operations (fallbacks / (offloads + fallbacks)).",
		sampled|requiredMetric,
		func() float64 {
			off, fb := XFMOffloads.Value(), XFMFallbacks.Value()
			if off+fb == 0 {
				return 0
			}
			return float64(fb) / float64(off+fb)
		})
}

// NMA (aggregated across every Sim in the process). The per-window
// counters are bumped in bulk at the end of StepWindow so the hot loop
// stays a handful of atomic adds per tRFC.
var (
	NMAWindows = counter(layerNMA, "nma_windows_total",
		"Refresh windows (tRFC) the NMA simulators stepped through.", sampled|requiredSeries)
	NMABusyWindows = counter(layerNMA, "nma_busy_windows_total",
		"Refresh windows that carried at least one NMA access.", sampled)
	NMAConditionalAccesses = counter(layerNMA, "nma_conditional_accesses_total",
		"Conditional (refresh-parallel, zero activation cost) accesses performed.", sampled)
	NMARandomAccesses = counter(layerNMA, "nma_random_accesses_total",
		"Random accesses performed: slots stolen from the one-per-tRFC budget.", sampled)
	NMASlotsOffered = counter(layerNMA, "nma_slots_offered_total",
		"Access slots offered across all windows (conditional budget + random budget per tRFC).", sampled)
	NMARequestsSubmitted = counter(layerNMA, "nma_requests_submitted_total",
		"Offload requests offered to the Compress_Request_Queue.", sampled)
	NMARequestsRejected = counter(layerNMA, "nma_requests_rejected_total",
		"Offload requests rejected by queue back-pressure (driver falls back to the CPU).", sampled)
	NMARequestsCompleted = counter(layerNMA, "nma_requests_completed_total",
		"Offload requests fully written back to DRAM.", sampled)
	NMAOffloadLatencyPs = histogram(layerNMA, "nma_offload_latency_ps",
		"Offload completion latency (submission to write-back) in simulated picoseconds.",
		ExpBuckets(1e6, 2, 18), sampled|requiredMetric)
	NMAQueueDepth = gauge(layerNMA, "nma_queue_depth",
		"Current Compress_Request_Queue depth (last stepped window).", sampled)
	NMASPMUsedBytes = gauge(layerNMA, "nma_spm_used_bytes",
		"Current ScratchPad Memory occupancy in bytes (last stepped window).", sampled)
	NMAStormWindows = counter(layerNMA, "nma_storm_windows_total",
		"Refresh windows starved by an injected refresh storm (zero slots offered).", sampled)
)

// nma_slot_utilization is derived at export time from the offered and
// consumed slot counters — the Fig. 6/Fig. 12 "how much of the refresh
// side channel did the workload consume" number.
func init() {
	gaugeFunc(layerNMA, "nma_slot_utilization",
		"Performed accesses over offered access slots across all refresh windows.",
		sampled|requiredMetric|requiredSeries,
		func() float64 {
			offered := NMASlotsOffered.Value()
			if offered == 0 {
				return 0
			}
			return float64(NMAConditionalAccesses.Value()+NMARandomAccesses.Value()) / float64(offered)
		})
}

// DRAM: refresh pressure is the resource the whole paper trades on (NMA
// compute is hidden under tRFC), so the rank layer exports how many
// all-bank refreshes fired and how long ranks spent locked out.
var (
	DRAMRefs = counter(layerDRAM, "dram_refs_total",
		"All-bank REF commands issued across every rank.", 0)
	DRAMRefreshLockPs = counter(layerDRAM, "dram_refresh_lock_ps_total",
		"Total picoseconds ranks spent locked by refresh (tRFC windows).", 0)
)

// Memory controller: request volume and latency as seen at the host
// controller (the vantage point of the paper's §7 co-run interference
// experiments), plus FR-FCFS queue occupancy so back-pressure into the
// core is visible on a dashboard.
var (
	MemctrlRequests = counterVec(layerMemctrl, "memctrl_requests_total",
		"Requests submitted to the controller, by access kind.", "kind", sampled)
	MemctrlRequestLatencyPs = histogram(layerMemctrl, "memctrl_request_latency_ps",
		"Per-request completion latency in picoseconds (all chunks done).",
		ExpBuckets(1e3, 2, 24), sampled)
	MemctrlReadQueueDepth = gauge(layerMemctrl, "memctrl_read_queue_depth",
		"Current FR-FCFS read queue occupancy.", sampled)
	MemctrlWriteQueueDepth = gauge(layerMemctrl, "memctrl_write_queue_depth",
		"Current FR-FCFS write queue occupancy.", sampled)
	MemctrlQueueFullStalls = counterVec(layerMemctrl, "memctrl_queue_full_stalls_total",
		"Enqueue rejections due to a full transaction queue, by queue.", "queue", sampled)
)

// Worker pool: how often the stack fans out, how wide, and how evenly
// the atomic work-claiming spreads indexes across workers. The
// per-worker counts are accumulated in locals inside ForEach and
// observed once per batch, so the claiming loop itself stays free of
// shared writes.
var (
	ParallelBatches = counter(layerParallel, "parallel_batches_total",
		"ForEach invocations that fanned out to more than one worker.", 0)
	ParallelTasks = counter(layerParallel, "parallel_tasks_total",
		"Indexes executed by ForEach (serial and parallel).", 0)
	ParallelWorkerTasks = histogram(layerParallel, "parallel_worker_tasks",
		"Indexes claimed by one worker in one parallel ForEach (balance).",
		ExpBuckets(1, 2, 13), 0)
)

// Chaos: one counter family, labeled by injection site; the per-site
// children are cached on each fault.Injector at construction so the
// hot submit path never does a label lookup.
var FaultInjected = counterVec(layerFault, "fault_injected_total",
	"Faults fired by the chaos injection plane, by injection site.", "site", sampled)
