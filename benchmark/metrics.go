package main

import (
	"fmt"
	"strings"
)

// The metric catalogue. BENCHMARK.json at the repo root names the same
// metrics with the same units, directions and bounds; the self-test
// fails when the two drift apart. README.md holds the glossary.

// metricKind decides how -compare treats two files' values.
type metricKind int

const (
	// hostTime is wall clock on the sandbox: noisy, compared by
	// relative change of the medians against the metric's bound.
	hostTime metricKind = iota
	// exact is a count or a sim-time quantity: a deterministic function
	// of the seed, so any difference between two commits is a behaviour
	// change. Compared for equality.
	exact
	// info is context (memory, GC, residuals): printed, never gated.
	info
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the reference median by which a hostTime
	// metric may worsen before -compare (and, for end-to-end metrics,
	// the PR driver) calls it a regression. 0 on per-layer host times
	// that are reported but not gated.
	Bound float64
	Kind  metricKind
}

// boundText is how the tables print a metric's gate.
func (d metricDef) boundText() string {
	switch {
	case d.Kind == exact:
		return "exact"
	case d.Kind == hostTime && d.Bound > 0:
		return fmt.Sprintf("%.0f%%", d.Bound*100)
	}
	return "-"
}

// endToEnd metrics are what a user of the swap path or of the simulator
// sees. Every workload reports every one; the per-workload meaning of
// the two latency metrics is in README.md ("End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, hostTime},
	{"pages_per_s", "1/s", "higher", 0.25, hostTime},
	{"swapout_p50_us", "us", "lower", 0.25, hostTime},
	{"swapin_p50_us", "us", "lower", 0.25, hostTime},
}

// perLayer metrics come from the traced invocation (-trace 1): counts
// read from the layers' own Stats(), in-situ codec timing from the
// timingCodec decorator, and single-threaded layer replays. A layer
// that is not on a workload's path reports 0 there.
//
// The first block holds the workload-level quantities of ISSUE 12 that
// exist on only some workloads (or are 0 today) and so cannot be
// end-to-end metrics under the driver's every-metric-on-every-workload
// contract; -compare still gates them.
var perLayer = []metricDef{
	{"sim_windows_per_s", "1/s", "higher", 0.25, hostTime},
	{"demand_swapin_p95_us", "us", "lower", 0.25, hostTime},
	{"failed_op_ratio", "ratio", "lower", 0, exact},
	{"compression_ratio", "ratio", "higher", 0, exact},
	{"host_cpu_cycles_per_page", "cycles", "lower", 0, exact},
	{"cpu_fallback_rate", "ratio", "lower", 0, exact},
	{"offload_latency_mean_trefi", "tREFI", "lower", 0, exact},
	{"conditional_fraction", "ratio", "higher", 0, exact},

	{"corpus.gen_ms", "ms", "lower", 0, hostTime},

	{"compress.compress_us_per_page", "us", "lower", 0, hostTime},
	{"compress.decompress_us_per_page", "us", "lower", 0, hostTime},
	{"compress.calls", "count", "lower", 0, exact},
	{"compress.stored_bytes_per_page", "B", "lower", 0, exact},
	{"compress.busy_share", "ratio", "lower", 0, hostTime},

	{"ecc.parity_us_per_page", "us", "lower", 0, hostTime},
	{"ecc.verify_us_per_page", "us", "lower", 0, hostTime},
	{"ecc.corrected_words", "count", "lower", 0, exact},
	{"ecc.uncorrectable_words", "count", "lower", 0, exact},

	{"zsmalloc.alloc_ns_per_op", "ns", "lower", 0, hostTime},
	{"zsmalloc.get_ns_per_op", "ns", "lower", 0, hostTime},
	{"zsmalloc.free_ns_per_op", "ns", "lower", 0, hostTime},
	{"zsmalloc.utilization", "ratio", "higher", 0, exact},
	{"zsmalloc.compact_bytes_moved", "B", "lower", 0, exact},
	{"zsmalloc.compact_ms", "ms", "lower", 0, hostTime},

	{"rbtree.put_ns_per_op", "ns", "lower", 0, hostTime},
	{"rbtree.get_ns_per_op", "ns", "lower", 0, hostTime},
	{"rbtree.delete_ns_per_op", "ns", "lower", 0, hostTime},

	{"sfm.self_us_per_page_out", "us", "lower", 0, hostTime},
	{"sfm.self_us_per_page_in", "us", "lower", 0, hostTime},
	{"sfm.parallel_efficiency", "ratio", "higher", 0, hostTime},
	{"sfm.same_filled_pages", "count", "higher", 0, exact},
	{"sfm.incompressible_pages", "count", "lower", 0, exact},
	{"sfm.compact_on_full", "count", "lower", 0, exact},

	{"parallel.dispatch_ns_per_item", "ns", "lower", 0, hostTime},

	{"xfm.self_us_per_page", "us", "lower", 0, hostTime},
	{"xfm.submit_ns_per_req", "ns", "lower", 0, hostTime},
	{"xfm.offloads", "count", "higher", 0, exact},
	{"xfm.fallbacks", "count", "lower", 0, exact},
	{"xfm.spm_syncs", "count", "lower", 0, exact},
	{"xfm.mmio_reads", "count", "lower", 0, exact},
	{"xfm.mmio_writes", "count", "lower", 0, exact},
	{"xfm.swapin_demand_p99_us", "us", "lower", 0, hostTime},

	{"nma.host_ns_per_window", "ns", "lower", 0, hostTime},
	{"nma.host_ns_per_request", "ns", "lower", 0, hostTime},
	{"nma.advance_idle_ns_per_call", "ns", "lower", 0, hostTime},
	{"nma.submitted", "count", "higher", 0, exact},
	{"nma.completed", "count", "higher", 0, exact},
	{"nma.fallbacks", "count", "lower", 0, exact},
	{"nma.busy_window_fraction", "ratio", "higher", 0, exact},
	{"nma.slot_utilization", "ratio", "higher", 0, exact},
	{"nma.max_spm_occupancy_bytes", "B", "lower", 0, exact},
	{"nma.max_latency_trefi", "tREFI", "lower", 0, exact},

	{"workload.gen_ns_per_req", "ns", "lower", 0, hostTime},

	{"host.copy_us_per_page", "us", "lower", 0, hostTime},
	{"host.peak_rss_mb", "MB", "lower", 0, info},
	{"host.allocs_per_page", "count", "lower", 0, info},
	{"host.alloc_bytes_per_page", "B", "lower", 0, info},
	{"host.gc_pause_ms", "ms", "lower", 0, info},
	{"host.trace_overhead_pct", "%", "lower", 0, info},
	{"host.attribution_residual_pct", "%", "lower", 0, info},
}

// metrics is one run's name → value table.
type metrics map[string]float64

// offPath records that the metrics with the given name prefixes have
// nothing to measure on this workload (the layer is not on its path):
// each one not already set reads 0, explicitly, so "missing" keeps
// meaning "the benchmark forgot to measure it".
func (m metrics) offPath(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, set := m[d.Name]; !set && strings.HasPrefix(d.Name, p) {
				m[d.Name] = 0
			}
		}
	}
}

// missing lists the metrics of defs that m does not hold.
func (m metrics) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
