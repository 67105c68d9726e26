package memctrl

import (
	"fmt"

	"xfm/internal/dram"
	"xfm/internal/telemetry"
)

// Request is one memory access presented to the controller.
type Request struct {
	Addr   int64
	Size   int // bytes; split into bus bursts internally
	Kind   dram.AccessKind
	Stream int // traffic stream id for per-stream accounting
	At     dram.Ps
}

// StreamStats aggregates per-stream results.
type StreamStats struct {
	Requests    int64
	Bytes       int64
	TotalLatPs  dram.Ps
	MaxLatPs    dram.Ps
	RowHits     int64
	RowAccesses int64
}

// MeanLatencyNs returns the mean request latency in nanoseconds.
func (s StreamStats) MeanLatencyNs() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TotalLatPs) / float64(s.Requests) / float64(dram.Nanosecond)
}

// Channel models one DDR channel: the shared command/data bus plus its
// ranks. Accesses are serviced in call order (the harness submits them
// in time order; FR-FCFS reordering happens implicitly through the
// open-row policy of the banks).
type Channel struct {
	t     dram.Timings
	ranks []*dram.Rank

	busFreeAt dram.Ps
	busBusyPs dram.Ps // accumulated data-bus occupancy
	lastDone  dram.Ps

	bytesRead    int64
	bytesWritten int64
}

// NewChannel builds a channel with n ranks of the given device and
// timing set.
func NewChannel(n int, dev dram.DeviceConfig, t dram.Timings) *Channel {
	ch := &Channel{t: t}
	for i := 0; i < n; i++ {
		ch.ranks = append(ch.ranks, dram.NewRank(dev, t))
	}
	return ch
}

// Rank returns rank i of the channel.
func (c *Channel) Rank(i int) *dram.Rank { return c.ranks[i] }

// Access performs one chunk access of the given size on the channel
// and returns the completion time of the data transfer and whether
// the row buffer hit. The chunk is moved as ceil(bytes/BurstBytes)
// back-to-back bursts on the shared data bus.
func (c *Channel) Access(now dram.Ps, rank, bank, row int, kind dram.AccessKind, bytes int) (dram.Ps, bool) {
	if rank < 0 || rank >= len(c.ranks) {
		panic(fmt.Sprintf("memctrl: rank %d out of range", rank))
	}
	if bytes <= 0 {
		return now, false
	}
	bursts := (bytes + c.t.BurstBytes - 1) / c.t.BurstBytes
	done, hit := c.ranks[rank].Access(now, bank, row, kind)
	done += dram.Ps(bursts-1) * c.t.TBurst
	// Serialize the data beats on the shared bus.
	busTime := dram.Ps(bursts) * c.t.TBurst
	start := done - busTime
	if start < c.busFreeAt {
		done = c.busFreeAt + busTime
	}
	c.busFreeAt = done
	c.busBusyPs += busTime
	if done > c.lastDone {
		c.lastDone = done
	}
	if kind == dram.Read {
		c.bytesRead += int64(bytes)
	} else {
		c.bytesWritten += int64(bytes)
	}
	return done, hit
}

// BusUtilization returns the fraction of [0, horizon] the data bus was
// busy.
func (c *Channel) BusUtilization(horizon dram.Ps) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(c.busBusyPs) / float64(horizon)
}

// BytesMoved returns the total read and written byte counts.
func (c *Channel) BytesMoved() (read, written int64) {
	return c.bytesRead, c.bytesWritten
}

// Controller is the multi-channel memory controller: it owns the
// address mapping and one Channel per hardware channel.
type Controller struct {
	Map      Mapping
	channels []*Channel

	streams map[int]*StreamStats
}

// NewController builds a controller for the mapping with the given
// timing set.
func NewController(m Mapping, t dram.Timings) *Controller {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	ctl := &Controller{Map: m, streams: map[int]*StreamStats{}}
	for i := 0; i < m.Channels; i++ {
		ctl.channels = append(ctl.channels, NewChannel(m.RanksPerChannel, m.Device, t))
	}
	return ctl
}

// Channel returns channel i.
func (ctl *Controller) Channel(i int) *Channel { return ctl.channels[i] }

// Submit services a request, splitting it into bank-interleave-sized
// chunks, and returns the completion time of the last chunk.
func (ctl *Controller) Submit(req Request) dram.Ps {
	if req.Size <= 0 {
		return req.At
	}
	st := ctl.streams[req.Stream]
	if st == nil {
		st = &StreamStats{}
		ctl.streams[req.Stream] = st
	}
	var last dram.Ps
	step := int64(ctl.Map.BankInterleave)
	end := req.Addr + int64(req.Size)
	for a := req.Addr; a < end; a += step {
		chunk := int(step)
		if rem := end - a; rem < step {
			chunk = int(rem)
		}
		co := ctl.Map.Decompose(a)
		done, hit := ctl.channels[co.Channel].Access(req.At, co.Rank, co.Bank, co.Row, req.Kind, chunk)
		if done > last {
			last = done
		}
		st.RowAccesses++
		if hit {
			st.RowHits++
		}
	}
	st.Requests++
	st.Bytes += int64(req.Size)
	lat := last - req.At
	st.TotalLatPs += lat
	if lat > st.MaxLatPs {
		st.MaxLatPs = lat
	}
	if req.Kind == dram.Read {
		mReqReads.Inc()
	} else {
		mReqWrites.Inc()
	}
	telemetry.MemctrlRequestLatencyPs.Observe(float64(lat))
	return last
}

// Stream returns the accumulated stats for a stream id (zero stats if
// the stream never submitted).
func (ctl *Controller) Stream(id int) StreamStats {
	if st := ctl.streams[id]; st != nil {
		return *st
	}
	return StreamStats{}
}

// TotalBusUtilization returns the mean data-bus utilization across
// channels over [0, horizon].
func (ctl *Controller) TotalBusUtilization(horizon dram.Ps) float64 {
	var sum float64
	for _, ch := range ctl.channels {
		sum += ch.BusUtilization(horizon)
	}
	return sum / float64(len(ctl.channels))
}

// TotalBytes returns system-wide read and written bytes.
func (ctl *Controller) TotalBytes() (read, written int64) {
	for _, ch := range ctl.channels {
		r, w := ch.BytesMoved()
		read += r
		written += w
	}
	return read, written
}

// BandwidthGBps converts a byte count over a horizon into GB/s.
func BandwidthGBps(bytes int64, horizon dram.Ps) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(bytes) / (float64(horizon) / float64(dram.Second)) / 1e9
}
