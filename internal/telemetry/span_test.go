package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// setCapacity resizes the ring to hold up to n spans, discarding
// anything recorded so far; the programs keep DefaultTraceCapacity.
func (t *Tracer) setCapacity(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = make([]Span, n)
	t.next, t.n, t.dropped = 0, 0, 0
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer()
	tk := tr.NewTrack("t")
	tr.Span(tk, "a", "c", 0, 10, nil)
	if tr.Len() != 0 {
		t.Errorf("disabled tracer recorded %d spans", tr.Len())
	}
}

func TestTracerRecordsAndResets(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	tk := tr.NewTrack("t")
	tr.Span(tk, "a", "c", 100, 200, map[string]int64{"k": 1})
	tr.Span(tk, "b", "c", 150, 150, nil)
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
	spans := tr.Spans()
	if spans[0].Name != "a" || spans[0].Start != 100 || spans[0].Dur != 100 {
		t.Errorf("span[0] = %+v", spans[0])
	}
	if spans[1].Name != "b" || spans[1].Start != 150 || spans[1].Dur != 0 {
		t.Errorf("span[1] = %+v", spans[1])
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("reset should clear spans and drop count")
	}
}

func TestTracerNegativeDurationClamps(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	tk := tr.NewTrack("t")
	tr.Span(tk, "a", "c", 100, 50, nil)
	if s := tr.Spans()[0]; s.Dur != 0 {
		t.Errorf("dur = %d, want clamp to 0", s.Dur)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer()
	tr.setCapacity(4)
	tr.SetEnabled(true)
	tk := tr.NewTrack("t")
	for i := 0; i < 10; i++ {
		tr.Span(tk, "s", "c", int64(i), int64(i+1), nil)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	spans := tr.Spans()
	// Oldest-first: the survivors are the last four records.
	for i, s := range spans {
		if want := int64(6 + i); s.Start != want {
			t.Errorf("span[%d].Start = %d, want %d", i, s.Start, want)
		}
	}
}

func TestWriteChromeTraceJSON(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	outer := tr.NewTrack("nma")
	tr.Span(outer, "refresh-window", "dram", 0, 1_000_000, nil)
	tr.Span(outer, "compress", "nma", 100_000, 400_000, map[string]int64{"req": 1})
	tr.Span(tr.NewTrack("swap"), "swap-out", "swap", 500_000, 500_000, nil)

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &tf); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	var win, comp, swap, meta int
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M":
			meta++
		case ev.Name == "swap-out":
			swap++
			if ev.Ph != "X" || ev.Ts != 0.5 || ev.Dur != 0 {
				t.Errorf("swap-out ph/ts/dur = %s/%v/%v, want X/0.5/0", ev.Ph, ev.Ts, ev.Dur)
			}
		case ev.Name == "refresh-window":
			win++
			if ev.Ts != 0 || ev.Dur != 1 { // 1e6 ps = 1 µs
				t.Errorf("window ts/dur = %v/%v, want 0/1", ev.Ts, ev.Dur)
			}
		case ev.Name == "compress":
			comp++
			if ev.Ts != 0.1 || ev.Dur != 0.3 {
				t.Errorf("compress ts/dur = %v/%v, want 0.1/0.3", ev.Ts, ev.Dur)
			}
		}
	}
	if win != 1 || comp != 1 || swap != 1 {
		t.Errorf("events: %d windows, %d compress, %d swap-outs", win, comp, swap)
	}
	if meta == 0 {
		t.Error("expected process/thread metadata events")
	}
}

// TestTracerConcurrent drives spans from several goroutines while a
// reader snapshots, for the -race suite.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	tr.setCapacity(1024)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(tk int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Span(tk, "s", "c", int64(i), int64(i+1), nil)
			}
		}(tr.NewTrack("t"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Spans()
			var b strings.Builder
			_ = tr.WriteChromeTrace(&b)
		}
	}()
	wg.Wait()
	<-done
	if tr.Len()+int(tr.Dropped()) != 4*2000 {
		t.Errorf("live %d + dropped %d != %d recorded", tr.Len(), tr.Dropped(), 4*2000)
	}
}
