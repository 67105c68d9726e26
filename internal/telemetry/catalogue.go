package telemetry

import (
	"fmt"
	"regexp"
)

// The metric catalogue: every family of the process-wide registry is
// declared here, exactly once, as the handle its owner records
// through. The constructors below are the only way into the default
// registry, so a registration elsewhere does not compile. Every row is
// a series of the flight recorder (DefaultSeriesMetrics), the one
// metric export; what telemetryck requires of a CI recording
// (RequiredSeries) and the DESIGN §7 table (TestDesignCatalogueTable)
// are read off the rows. A row is deterministic under the simulated
// clock (no wall-time histograms), so recordings are bit-identical for
// a fixed seed at any worker count. Private registries (NewRegistry)
// are not catalogued.

// layer is the package that owns a family; DESIGN §7 groups by it.
type layer string

const (
	layerFault    layer = "fault"
	layerMemctrl  layer = "memctrl"
	layerNMA      layer = "nma"
	layerSFM      layer = "sfm"
	layerWorkload layer = "workload"
	layerXFM      layer = "xfm"
)

// attrs marks a row for consumers beyond the recorder.
type attrs uint8

// required rows must appear, with a point, in every -timeseries-out
// file CI validates (telemetryck -require-series).
const required attrs = 1

// row is one catalogue entry.
type row struct {
	name, kind, help, labelKey string
	layer                      layer
	attrs                      attrs
}

var (
	catalogue []row
	// metricNameRE is the naming convention: a layer prefix, then
	// lower_snake.
	metricNameRE = regexp.MustCompile(`^(xfm|sfm|nma|memctrl|fault)_[a-z0-9_]+$`)
)

// declare appends a row. A name off the convention or declared twice
// panics at init.
func declare(r row) {
	if !metricNameRE.MatchString(r.name) {
		panic(fmt.Sprintf("telemetry: metric name %q violates %s", r.name, metricNameRE))
	}
	for _, have := range catalogue {
		if have.name == r.name {
			panic(fmt.Sprintf("telemetry: metric %q declared twice", r.name))
		}
	}
	catalogue = append(catalogue, r)
}

func counter(l layer, name, help string, a attrs) *Counter {
	declare(row{name: name, kind: kindCounter, help: help, layer: l, attrs: a})
	return defaultRegistry.Counter(name)
}

func gauge(l layer, name, help string, a attrs) *Gauge {
	declare(row{name: name, kind: kindGauge, help: help, layer: l, attrs: a})
	return defaultRegistry.Gauge(name)
}

func gaugeFunc(l layer, name, help string, a attrs, fn func() float64) {
	declare(row{name: name, kind: kindGaugeFunc, help: help, layer: l, attrs: a})
	defaultRegistry.GaugeFunc(name, fn)
}

func histogram(l layer, name, help string, buckets []float64, a attrs) *Histogram {
	declare(row{name: name, kind: kindHistogram, help: help, layer: l, attrs: a})
	return defaultRegistry.Histogram(name, buckets)
}

func counterVec(l layer, name, help, labelKey string, a attrs) *CounterVec {
	declare(row{name: name, kind: kindCounter, help: help, labelKey: labelKey, layer: l, attrs: a})
	return defaultRegistry.CounterVec(name, labelKey)
}

// DefaultSeriesMetrics is what the default sampler records: every row,
// in catalogue order.
func DefaultSeriesMetrics() []string {
	out := make([]string, len(catalogue))
	for i, r := range catalogue {
		out[i] = r.name
	}
	return out
}

// RequiredSeries is telemetryck's -require-series default: the required
// rows, matched against each recorded series' source family.
func RequiredSeries() []string {
	var out []string
	for _, r := range catalogue {
		if r.attrs&required != 0 {
			out = append(out, r.name)
		}
	}
	return out
}

// SFM: swap counts and the compressibility profile of swapped pages
// (the §3 cost model's inputs). The counters are bumped on the per-page
// swap paths; at a handful of uncontended atomic adds next to a 4 KiB
// (de)compression they are invisible in profiles.
var (
	SFMSwapOuts = counter(layerSFM, "sfm_swap_outs_total",
		"Pages compressed into far memory (swapOut calls that succeeded).", required)
	SFMSwapIns = counter(layerSFM, "sfm_swap_ins_total",
		"Pages decompressed out of far memory (swapIn calls that succeeded).", 0)
	SFMSameFilled = counter(layerSFM, "sfm_same_filled_total",
		"Swap-outs stored as a single fill word (zswap's same-filled-page path).", 0)
	SFMIncompressible = counter(layerSFM, "sfm_incompressible_total",
		"Swap-outs stored raw because compression did not shrink the page.", 0)
	SFMCompressedPageBytes = histogram(layerSFM, "sfm_compressed_page_bytes",
		"Stored bytes per compressed page (excludes same-filled pages).",
		LinearBuckets(256, 256, 16), 0)
)

// Workload: the promotion-rate gauge is updated as the synthetic
// applications run (each cold-scan epoch of the web front-end), so the
// flight recorder sees the §2.1 promotion rate as a trajectory, not
// just the end-of-run figure (TestEmulatorComparison holds that figure
// to the validated band).
var SFMPromotionRate = gauge(layerWorkload, "sfm_promotion_rate",
	"Observed far-memory promotion rate (§2.1): distinct bytes promoted over distinct bytes ever far, so far.",
	required)

// XFM: the offload-vs-fallback split and the side-band ECC outcome
// across every backend in the process. The control-path cost (MMIO
// round trips, ioctls, lazy SPM resyncs) is per instance:
// Driver.MMIOStats and Backend.SPMSyncs.
var (
	XFMOffloads = counter(layerXFM, "xfm_offloads_total",
		"Swap operations the NMA accepted for offload.", required)
	XFMFallbacks = counter(layerXFM, "xfm_fallbacks_total",
		"Swap operations executed by the CPU (demand faults and NMA back-pressure).", required)
	XFMECCCorrected = counter(layerXFM, "xfm_ecc_corrected_total",
		"Side-band ECC words corrected on swap-in verification.", 0)
	XFMECCUncorrectable = counter(layerXFM, "xfm_ecc_uncorrectable_total",
		"Side-band ECC words with uncorrectable errors on swap-in verification.", 0)
)

// xfm_fallback_rate is derived when sampled; it is the §7 number
// that decides whether the NMA absorbed the swap traffic.
func init() {
	gaugeFunc(layerXFM, "xfm_fallback_rate",
		"CPU fallbacks over all swap operations (fallbacks / (offloads + fallbacks)).",
		required,
		func() float64 {
			off, fb := XFMOffloads.Value(), XFMFallbacks.Value()
			if off+fb == 0 {
				return 0
			}
			return float64(fb) / float64(off+fb)
		})
}

// NMA (aggregated across every Sim in the process). A Sim counts each
// event once, in its own Stats and a buffer of completed-op latencies;
// its publish adds what the registry does not yet hold to these rows
// before every flight-recorder tick while the sampler records and
// before each exported Sim call returns. The gauges hold the last
// window a Sim stepped or skipped.
var (
	NMAWindows = counter(layerNMA, "nma_windows_total",
		"Refresh windows (tRFC) the NMA simulators stepped through.", required)
	NMABusyWindows = counter(layerNMA, "nma_busy_windows_total",
		"Refresh windows that carried at least one NMA access.", 0)
	NMAConditionalAccesses = counter(layerNMA, "nma_conditional_accesses_total",
		"Conditional (refresh-parallel, zero activation cost) accesses performed.", 0)
	NMARandomAccesses = counter(layerNMA, "nma_random_accesses_total",
		"Random accesses performed: slots stolen from the one-per-tRFC budget.", 0)
	NMASlotsOffered = counter(layerNMA, "nma_slots_offered_total",
		"Access slots offered across all windows (conditional budget + random budget per tRFC).", 0)
	NMARequestsSubmitted = counter(layerNMA, "nma_requests_submitted_total",
		"Offload requests offered to the Compress_Request_Queue.", 0)
	NMARequestsRejected = counter(layerNMA, "nma_requests_rejected_total",
		"Offload requests rejected by queue back-pressure (driver falls back to the CPU).", 0)
	NMARequestsCompleted = counter(layerNMA, "nma_requests_completed_total",
		"Offload requests fully written back to DRAM.", 0)
	NMAOffloadLatencyPs = histogram(layerNMA, "nma_offload_latency_ps",
		"Offload completion latency (submission to write-back) in simulated picoseconds.",
		ExpBuckets(1e6, 2, 18), required)
	NMAQueueDepth = gauge(layerNMA, "nma_queue_depth",
		"Current Compress_Request_Queue depth (last stepped window).", 0)
	NMASPMUsedBytes = gauge(layerNMA, "nma_spm_used_bytes",
		"Current ScratchPad Memory occupancy in bytes (last stepped window).", 0)
	NMAStormWindows = counter(layerNMA, "nma_storm_windows_total",
		"Refresh windows starved by an injected refresh storm (zero slots offered).", 0)
)

// nma_slot_utilization is derived when sampled from the offered and
// consumed slot counters — the Fig. 6/Fig. 12 "how much of the refresh
// side channel did the workload consume" number.
func init() {
	gaugeFunc(layerNMA, "nma_slot_utilization",
		"Performed accesses over offered access slots across all refresh windows.",
		required,
		func() float64 {
			offered := NMASlotsOffered.Value()
			if offered == 0 {
				return 0
			}
			return float64(NMAConditionalAccesses.Value()+NMARandomAccesses.Value()) / float64(offered)
		})
}

// Memory controller: request volume and latency as seen at the host
// controller (the vantage point of the paper's §7 co-run interference
// experiments), plus FR-FCFS queue occupancy so back-pressure into the
// core is visible on a dashboard.
var (
	MemctrlRequests = counterVec(layerMemctrl, "memctrl_requests_total",
		"Requests submitted to the controller, by access kind.", "kind", 0)
	MemctrlRequestLatencyPs = histogram(layerMemctrl, "memctrl_request_latency_ps",
		"Per-request completion latency in picoseconds (all chunks done).",
		ExpBuckets(1e3, 2, 24), 0)
	MemctrlReadQueueDepth = gauge(layerMemctrl, "memctrl_read_queue_depth",
		"Current FR-FCFS read queue occupancy.", 0)
	MemctrlWriteQueueDepth = gauge(layerMemctrl, "memctrl_write_queue_depth",
		"Current FR-FCFS write queue occupancy.", 0)
	MemctrlQueueFullStalls = counterVec(layerMemctrl, "memctrl_queue_full_stalls_total",
		"Enqueue rejections due to a full transaction queue, by queue.", "queue", 0)
)

// Chaos: one counter family, labeled by injection site; the per-site
// children are cached on each fault.Injector at construction so the
// hot submit path never does a label lookup.
var FaultInjected = counterVec(layerFault, "fault_injected_total",
	"Faults fired by the chaos injection plane, by injection site.", "site", 0)
