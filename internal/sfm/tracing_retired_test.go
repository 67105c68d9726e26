// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with tracing_test.go and TestTracingBatch.

package sfm

import (
	"xfm/internal/dram"
	"xfm/internal/telemetry"
	"xfm/internal/trace"
)

// TracingBackend wraps any Backend and records every swap operation as
// a trace.Record — the capture point the paper's methodology implies
// ("Swap-in/out traces are generated using the AIFM userspace far
// memory framework", §7). Demand swap-ins and offloadable prefetches
// are distinguished by the offload hint.
//
// The record path doubles as a telemetry capture point: when the
// configured span tracer is enabled, every swap operation is also
// emitted as an instant event on a "swap" track, so the trace.Writer
// file and the Chrome-trace timeline export are fed by one code path.
type TracingBackend struct {
	inner Backend
	recs  []trace.Record

	tracer *telemetry.Tracer
	track  int
}

// NewTracingBackend wraps inner.
func NewTracingBackend(inner Backend) *TracingBackend {
	return NewTracingBackendCapacity(inner, 0)
}

// NewTracingBackendCapacity wraps inner with room for capacity records
// preallocated, so long captures append without growing the slice.
func NewTracingBackendCapacity(inner Backend, capacity int) *TracingBackend {
	t := &TracingBackend{inner: inner, tracer: telemetry.DefaultTracer(), track: -1}
	if capacity > 0 {
		t.recs = make([]trace.Record, 0, capacity)
	}
	return t
}

// SetTracer redirects the telemetry mirror to tr (nil disables it);
// tests inject private tracers here.
func (t *TracingBackend) SetTracer(tr *telemetry.Tracer) {
	t.tracer = tr
	t.track = -1
}

// record appends one swap record and mirrors it into the span tracer.
func (t *TracingBackend) record(now dram.Ps, op trace.Op, id PageID) {
	t.recs = append(t.recs, trace.Record{
		AtPs: int64(now), Op: op, PageID: int64(id), Bytes: PageSize,
	})
	if t.tracer != nil && t.tracer.Enabled() {
		if t.track < 0 {
			t.track = t.tracer.NewTrack("swap")
		}
		t.tracer.Span(t.track, "swap-"+op.String(), "swap", int64(now), int64(now), map[string]int64{
			"page":  int64(id),
			"bytes": PageSize,
		})
	}
}

// SwapOut implements Backend.
func (t *TracingBackend) SwapOut(now dram.Ps, id PageID, data []byte) error {
	if err := t.inner.SwapOut(now, id, data); err != nil {
		return err
	}
	t.record(now, trace.SwapOut, id)
	return nil
}

// SwapIn implements Backend.
func (t *TracingBackend) SwapIn(now dram.Ps, id PageID, dst []byte, offload bool) error {
	if err := t.inner.SwapIn(now, id, dst, offload); err != nil {
		return err
	}
	op := trace.SwapIn
	if offload {
		op = trace.Prefetch
	}
	t.record(now, op, id)
	return nil
}

// Contains implements Backend.
func (t *TracingBackend) Contains(id PageID) bool { return t.inner.Contains(id) }

// Compact implements Backend.
func (t *TracingBackend) Compact() int64 { return t.inner.Compact() }

// Stats implements Backend.
func (t *TracingBackend) Stats() BackendStats { return t.inner.Stats() }

// Trace returns the records captured so far (shared slice; callers
// must not mutate).
func (t *TracingBackend) Trace() []trace.Record { return t.recs }

// Reset discards the captured records, keeping the allocated capacity
// for the next capture.
func (t *TracingBackend) Reset() { t.recs = t.recs[:0] }

// WriteTrace drains the captured records into w and clears the buffer.
func (t *TracingBackend) WriteTrace(w *trace.Writer) error {
	for _, r := range t.recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	t.recs = t.recs[:0]
	return w.Flush()
}

var _ Backend = (*TracingBackend)(nil)

// SwapOutBatch implements Backend: the batch is forwarded to the inner
// backend and each successful page is recorded, matching the per-page
// records a serial loop would produce.
func (t *TracingBackend) SwapOutBatch(now dram.Ps, pages []PageOut) []error {
	errs := t.inner.SwapOutBatch(now, pages)
	for i, p := range pages {
		if errs[i] == nil {
			t.record(now, trace.SwapOut, p.ID)
		}
	}
	return errs
}

// SwapInBatch implements Backend.
func (t *TracingBackend) SwapInBatch(now dram.Ps, pages []PageIn, offload bool) []error {
	errs := t.inner.SwapInBatch(now, pages, offload)
	op := trace.SwapIn
	if offload {
		op = trace.Prefetch
	}
	for i, p := range pages {
		if errs[i] == nil {
			t.record(now, op, p.ID)
		}
	}
	return errs
}
