package memctrl

import (
	"testing"

	"xfm/internal/dram"
)

func newQC() *QueuedController {
	return NewQueuedController(SkylakeMapping(1, 1, dram.Device8Gb), dram.DDR5_3200())
}

func TestQueueAdmissionLimits(t *testing.T) {
	q := newQC()
	q.ReadQueueDepth = 2
	q.WriteQueueDepth = 1
	if !q.Enqueue(Request{Addr: 0, Size: 64, Kind: dram.Read}) {
		t.Fatal("first read rejected")
	}
	if !q.Enqueue(Request{Addr: 64, Size: 64, Kind: dram.Read}) {
		t.Fatal("second read rejected")
	}
	if q.Enqueue(Request{Addr: 128, Size: 64, Kind: dram.Read}) {
		t.Error("read beyond depth accepted")
	}
	if !q.Enqueue(Request{Addr: 0, Size: 64, Kind: dram.Write}) {
		t.Fatal("write rejected")
	}
	if q.Enqueue(Request{Addr: 64, Size: 64, Kind: dram.Write}) {
		t.Error("write beyond depth accepted")
	}
	st := q.Stats()
	if st.ReadQueueFullStalls != 1 || st.WriteQueueFullStalls != 1 {
		t.Errorf("stall counts = %+v", st)
	}
}

func TestReadsPrioritizedOverWrites(t *testing.T) {
	q := newQC()
	q.Enqueue(Request{Addr: 0, Size: 64, Kind: dram.Write})
	q.Enqueue(Request{Addr: 4096, Size: 64, Kind: dram.Read})
	q.ServeOne()
	st := q.Stats()
	if st.ReadsServed != 1 || st.WritesServed != 0 {
		t.Errorf("read not prioritized: %+v", st)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	q := newQC()
	q.DrainHigh = 4
	q.DrainLow = 1
	// One read plus 4 writes: hitting the high watermark forces a
	// drain that proceeds ahead of the read until the low watermark.
	q.Enqueue(Request{Addr: 0, Size: 64, Kind: dram.Read})
	for i := 0; i < 4; i++ {
		q.Enqueue(Request{Addr: int64(i) * 8192, Size: 64, Kind: dram.Write})
	}
	q.ServeOne() // enters drain → serves a write
	q.ServeOne() // still draining (3 > low)
	q.ServeOne() // drains to 1 ⇒ leaves drain mode after this serve
	st := q.Stats()
	if st.WritesServed < 3 {
		t.Fatalf("writes served = %d during drain, want ≥ 3", st.WritesServed)
	}
	if st.DrainEntries != 1 {
		t.Errorf("drain episodes = %d, want 1", st.DrainEntries)
	}
	// With the drain over, the read goes next.
	q.ServeOne()
	if q.Stats().ReadsServed != 1 {
		t.Error("read not served after drain")
	}
}

func TestFirstReadyReordering(t *testing.T) {
	q := newQC()
	// Open a row by serving one read.
	q.Enqueue(Request{Addr: 0, Size: 64, Kind: dram.Read})
	q.Drain()
	// Now queue an older row-miss (different row, same bank) and a
	// younger row-hit (same row as the open one).
	missAddr := int64(1 << 20) // far away: different row
	q.Enqueue(Request{Addr: missAddr, Size: 64, Kind: dram.Read})
	q.Enqueue(Request{Addr: 64, Size: 64, Kind: dram.Read}) // row hit at row 0... same 128B chunk region
	before := q.Stats().FRReorders
	q.ServeOne()
	if q.Stats().FRReorders != before+1 {
		t.Errorf("row-hit request not served first (FR reorders = %d)", q.Stats().FRReorders)
	}
}

func TestDrainServesEverything(t *testing.T) {
	q := newQC()
	total := 0
	for i := 0; i < 30; i++ {
		kind := dram.Read
		if i%3 == 0 {
			kind = dram.Write
		}
		if q.Enqueue(Request{Addr: int64(i) * 4096, Size: 128, Kind: kind}) {
			total++
		}
	}
	last := q.Drain()
	if last <= 0 {
		t.Fatal("no completion time")
	}
	st := q.Stats()
	if int(st.ReadsServed+st.WritesServed) != total {
		t.Errorf("served %d of %d", st.ReadsServed+st.WritesServed, total)
	}
	r, w := q.QueueLens()
	if r != 0 || w != 0 {
		t.Errorf("queues not empty: %d/%d", r, w)
	}
}

func TestServeOneEmpty(t *testing.T) {
	q := newQC()
	if _, ok := q.ServeOne(); ok {
		t.Error("served from empty queues")
	}
}

// QueueLens returns the current (read, write) queue depths.
func (q *QueuedController) QueueLens() (int, int) { return len(q.readQ), len(q.writeQ) }
