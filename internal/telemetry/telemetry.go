// Package telemetry is the unified observability layer of the
// simulator: the metric catalogue (one row per metric, each owning its
// atomic counter, gauge, derived gauge or fixed-bucket latency
// histogram with estimated p50/p95/p99), the flight recorder that
// samples every row into a simulated-time recording, and a lock-cheap
// span tracer that records simulated-time spans into a bounded ring
// buffer and exports Chrome trace-event JSON (chrome://tracing /
// Perfetto).
//
// Every package of the offload path (sfm, xfm, nma, memctrl, fault,
// workload) records through the handles catalogue.go declares, and the
// CLIs export them as a recording (-timeseries-out), so a single
// benchmark run can emit the windowed metric series the health rules
// read (telemetryck prints their verdict) plus a navigable timeline of compression bursts
// packed inside refresh windows. All instruments are safe for
// concurrent use; reads taken while writers are active are approximate
// but race-free.
package telemetry

// defaultTracer is the process-wide span tracer, disabled until a CLI
// (or test) enables it.
var defaultTracer = NewTracer()

// DefaultTracer returns the process-wide span tracer.
func DefaultTracer() *Tracer { return defaultTracer }
