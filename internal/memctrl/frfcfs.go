package memctrl

import (
	"xfm/internal/dram"
	"xfm/internal/telemetry"
)

// QueuedController adds transaction queues and FR-FCFS scheduling on
// top of the channel model: reads are prioritized over writes, writes
// buffer until a high-watermark then drain to a low-watermark (the
// standard write-drain policy), and within a queue, row-buffer hits
// are served before older row misses (first-ready, first-come
// first-served). This is the scheduling layer a real host controller
// applies to the CPU and Baseline-SFM traffic the paper co-runs.
type QueuedController struct {
	inner *Controller

	// ReadQueueDepth and WriteQueueDepth bound the queues.
	ReadQueueDepth  int
	WriteQueueDepth int
	// DrainHigh/DrainLow are the write-buffer watermarks.
	DrainHigh, DrainLow int

	readQ, writeQ []Request
	draining      bool

	stats QueuedStats
}

// QueuedStats counts scheduling behavior.
type QueuedStats struct {
	ReadsServed, WritesServed int64
	FRReorders                int64 // row-hit requests served ahead of older misses
	DrainEntries              int64 // write-drain episodes
	ReadQueueFullStalls       int64
	WriteQueueFullStalls      int64
}

// NewQueuedController wraps a base controller with typical queue
// parameters (64-entry read queue, 64-entry write queue, drain at
// 48/16).
func NewQueuedController(m Mapping, t dram.Timings) *QueuedController {
	return &QueuedController{
		inner:           NewController(m, t),
		ReadQueueDepth:  64,
		WriteQueueDepth: 64,
		DrainHigh:       48,
		DrainLow:        16,
	}
}

// Inner returns the wrapped controller for stats access.
func (q *QueuedController) Inner() *Controller { return q.inner }

// Stats returns scheduling counters.
func (q *QueuedController) Stats() QueuedStats { return q.stats }

// Enqueue admits a request; it returns false when the relevant queue
// is full (the caller must retry later — modeling back-pressure into
// the core).
func (q *QueuedController) Enqueue(req Request) bool {
	if req.Kind == dram.Read {
		if len(q.readQ) >= q.ReadQueueDepth {
			q.stats.ReadQueueFullStalls++
			telemetry.MemctrlQueueFullStalls.Inc()
			return false
		}
		q.readQ = append(q.readQ, req)
		telemetry.MemctrlReadQueueDepth.SetInt(int64(len(q.readQ)))
		return true
	}
	if len(q.writeQ) >= q.WriteQueueDepth {
		q.stats.WriteQueueFullStalls++
		telemetry.MemctrlQueueFullStalls.Inc()
		return false
	}
	q.writeQ = append(q.writeQ, req)
	telemetry.MemctrlWriteQueueDepth.SetInt(int64(len(q.writeQ)))
	return true
}

// rowHit reports whether the request's first chunk targets an open
// row.
func (q *QueuedController) rowHit(req Request) bool {
	co := q.inner.Map.Decompose(req.Addr)
	bank := q.inner.Channel(co.Channel).Rank(co.Rank).Bank(co.Bank)
	return bank.State() == dram.BankActive && bank.OpenRow() == co.Row
}

// pickFR returns the index to serve from queue: the oldest row-hit if
// any (first-ready), else the oldest request.
func (q *QueuedController) pickFR(queue []Request) int {
	for i, r := range queue {
		if q.rowHit(r) {
			if i > 0 {
				q.stats.FRReorders++
			}
			return i
		}
	}
	return 0
}

// ServeOne issues the next scheduled request and returns its
// completion time; ok is false when both queues are empty. Reads are
// served unless a write drain is in progress.
func (q *QueuedController) ServeOne() (dram.Ps, bool) {
	// Enter/leave drain mode by watermark.
	if !q.draining && len(q.writeQ) >= q.DrainHigh {
		q.draining = true
		q.stats.DrainEntries++
	}
	if q.draining && len(q.writeQ) <= q.DrainLow {
		q.draining = false
	}

	useWrites := q.draining || len(q.readQ) == 0
	if useWrites && len(q.writeQ) > 0 {
		i := q.pickFR(q.writeQ)
		req := q.writeQ[i]
		q.writeQ = append(q.writeQ[:i], q.writeQ[i+1:]...)
		q.stats.WritesServed++
		telemetry.MemctrlWriteQueueDepth.SetInt(int64(len(q.writeQ)))
		return q.inner.Submit(req), true
	}
	if len(q.readQ) > 0 {
		i := q.pickFR(q.readQ)
		req := q.readQ[i]
		q.readQ = append(q.readQ[:i], q.readQ[i+1:]...)
		q.stats.ReadsServed++
		telemetry.MemctrlReadQueueDepth.SetInt(int64(len(q.readQ)))
		return q.inner.Submit(req), true
	}
	return 0, false
}

// Drain services queued requests until both queues are empty and
// returns the last completion time.
func (q *QueuedController) Drain() dram.Ps {
	var last dram.Ps
	for {
		done, ok := q.ServeOne()
		if !ok {
			return last
		}
		if done > last {
			last = done
		}
	}
}
