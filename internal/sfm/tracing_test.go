package sfm

import (
	"bytes"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/telemetry"
	"xfm/internal/trace"
)

func TestTracingBackendRecordsOps(t *testing.T) {
	tb := NewTracingBackend(newBackend())
	h := NewHeap(tb)
	id := h.Alloc(0, []byte("traced page"))
	if err := h.SwapOut(dram.Microsecond, id); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Touch(2*dram.Microsecond, id); err != nil {
		t.Fatal(err)
	}
	h.SwapOut(3*dram.Microsecond, id)
	if err := h.Prefetch(4*dram.Microsecond, id); err != nil {
		t.Fatal(err)
	}
	recs := tb.Trace()
	wantOps := []trace.Op{trace.SwapOut, trace.SwapIn, trace.SwapOut, trace.Prefetch}
	if len(recs) != len(wantOps) {
		t.Fatalf("records = %d, want %d", len(recs), len(wantOps))
	}
	for i, r := range recs {
		if r.Op != wantOps[i] {
			t.Errorf("record %d op = %v, want %v", i, r.Op, wantOps[i])
		}
		if r.PageID != int64(id) || r.Bytes != PageSize {
			t.Errorf("record %d fields wrong: %+v", i, r)
		}
	}
}

func TestTracingBackendSkipsFailedOps(t *testing.T) {
	tb := NewTracingBackend(newBackend())
	if err := tb.SwapOut(0, 1, []byte("short")); err == nil {
		t.Fatal("short page accepted")
	}
	dst := make([]byte, PageSize)
	if err := tb.SwapIn(0, 99, dst, false); err == nil {
		t.Fatal("missing page accepted")
	}
	if len(tb.Trace()) != 0 {
		t.Error("failed operations were traced")
	}
}

func TestTracingBackendWriteTrace(t *testing.T) {
	tb := NewTracingBackend(NewCPUBackend(compress.NewLZFast(), 0))
	h := NewHeap(tb)
	id := h.Alloc(0, []byte("x"))
	h.SwapOut(dram.Microsecond, id)
	var buf bytes.Buffer
	if err := tb.WriteTrace(trace.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	if len(tb.Trace()) != 0 {
		t.Error("buffer not drained")
	}
	recs, err := trace.ReadAll(trace.NewReader(&buf))
	if err != nil || len(recs) != 1 {
		t.Fatalf("read back %d records, %v", len(recs), err)
	}
}

func TestTracingBackendResetAndCapacity(t *testing.T) {
	tb := NewTracingBackendCapacity(newBackend(), 128)
	if cap(tb.Trace()) < 128 {
		t.Errorf("preallocated cap = %d, want ≥ 128", cap(tb.Trace()))
	}
	h := NewHeap(tb)
	id := h.Alloc(0, []byte("x"))
	if err := h.SwapOut(dram.Microsecond, id); err != nil {
		t.Fatal(err)
	}
	if len(tb.Trace()) != 1 {
		t.Fatalf("records = %d, want 1", len(tb.Trace()))
	}
	tb.Reset()
	if len(tb.Trace()) != 0 {
		t.Error("Reset left records behind")
	}
	if cap(tb.Trace()) < 128 {
		t.Error("Reset dropped the preallocated capacity")
	}
	if _, err := h.Touch(2*dram.Microsecond, id); err != nil {
		t.Fatal(err)
	}
	if len(tb.Trace()) != 1 {
		t.Error("capture after Reset did not record")
	}
}

func TestTracingBackendEmitsTelemetrySpans(t *testing.T) {
	tr := telemetry.NewTracer()
	tr.SetEnabled(true)
	tb := NewTracingBackend(newBackend())
	tb.SetTracer(tr)
	h := NewHeap(tb)
	id := h.Alloc(0, []byte("traced"))
	if err := h.SwapOut(dram.Microsecond, id); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Touch(2*dram.Microsecond, id); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "swap-"+trace.SwapOut.String() || spans[0].Dur != 0 {
		t.Errorf("span[0] = %+v", spans[0])
	}
	if spans[0].Args["page"] != int64(id) || spans[0].Args["bytes"] != PageSize {
		t.Errorf("span[0] args = %v", spans[0].Args)
	}
	// A disabled tracer must cost nothing and record nothing.
	tr.SetEnabled(false)
	h.SwapOut(3*dram.Microsecond, id)
	if tr.Len() != 2 {
		t.Errorf("disabled tracer recorded spans: %d", tr.Len())
	}
}
