// Package memsim drives the DRAM timing model with multi-stream
// traffic: workload streams (sequential, strided, random) and SFM swap
// streams are merged in time order onto the memory controller, and
// per-stream bandwidth and latency are measured. It is the
// simulation-based counterpart of the analytic contention model — the
// Fig. 11 mechanisms (channel queueing, page-granular swap bursts)
// reproduced on the actual bank/bus state machines, in the spirit of
// the paper's gem5-based emulator (§7).
package memsim

import (
	"fmt"
	"math/rand"

	"xfm/internal/dram"
	"xfm/internal/memctrl"
)

// Pattern is a traffic stream's address pattern.
type Pattern int

// Address patterns.
const (
	Sequential Pattern = iota // streaming walk (lbm-like)
	Strided                   // fixed stride, row-buffer hostile
	Random                    // uniform random (mcf-like)
	SwapBursts                // page-granular read+write bursts (SFM)
)

func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case SwapBursts:
		return "swap-bursts"
	default:
		return "invalid"
	}
}

// StreamSpec describes one traffic source.
type StreamSpec struct {
	ID      int
	Name    string
	Pattern Pattern
	// RateGBps is the offered bandwidth.
	RateGBps float64
	// ReqBytes is the request size (64–4096).
	ReqBytes int
	// Region is the address range [Base, Base+Size) the stream walks.
	Base, Size int64
	// WriteShare is the fraction of requests that are writes.
	WriteShare float64
	// Stride for Strided patterns, in bytes.
	Stride int64
	Seed   int64
}

// Validate checks the spec against a mapping.
func (s StreamSpec) Validate(m memctrl.Mapping) error {
	if s.RateGBps <= 0 || s.ReqBytes <= 0 || s.Size <= 0 {
		return fmt.Errorf("memsim: non-positive rate/size in %q", s.Name)
	}
	if s.Base < 0 || s.Base+s.Size > m.TotalBytes() {
		return fmt.Errorf("memsim: stream %q region outside memory", s.Name)
	}
	if s.WriteShare < 0 || s.WriteShare > 1 {
		return fmt.Errorf("memsim: stream %q write share %v", s.Name, s.WriteShare)
	}
	return nil
}

// event is one pending request of a stream.
type event struct {
	at  dram.Ps
	req memctrl.Request
}

// streamState generates a stream's requests lazily.
type streamState struct {
	spec   StreamSpec
	rng    *rand.Rand
	cursor int64
	next   event
	gap    dram.Ps
	phase  int // for SwapBursts: position within the page burst
}

func newStreamState(spec StreamSpec) *streamState {
	bytesPerSec := spec.RateGBps * 1e9
	reqsPerSec := bytesPerSec / float64(spec.ReqBytes)
	st := &streamState{
		spec: spec,
		rng:  rand.New(rand.NewSource(spec.Seed)),
		gap:  dram.Ps(float64(dram.Second) / reqsPerSec),
	}
	st.next = st.generate(0)
	return st
}

// generate builds the request issued at time `at`.
func (s *streamState) generate(at dram.Ps) event {
	spec := s.spec
	var addr int64
	switch spec.Pattern {
	case Sequential:
		addr = spec.Base + s.cursor%spec.Size
		s.cursor += int64(spec.ReqBytes)
	case Strided:
		addr = spec.Base + s.cursor%spec.Size
		s.cursor += spec.Stride
	case Random:
		addr = spec.Base + (s.rng.Int63n(spec.Size/int64(spec.ReqBytes)))*int64(spec.ReqBytes)
	case SwapBursts:
		// A swap moves a whole page: consecutive chunks back to back,
		// then a pause until the next page (bursty, like SFM).
		pageStart := spec.Base + (s.cursor/4096*4096)%spec.Size
		addr = pageStart + int64(s.phase*spec.ReqBytes)%4096
		s.phase++
		if s.phase*spec.ReqBytes >= 4096 {
			s.phase = 0
			s.cursor += 4096
		}
	}
	kind := dram.Read
	if s.rng.Float64() < spec.WriteShare {
		kind = dram.Write
	}
	return event{at: at, req: memctrl.Request{
		Addr: addr, Size: spec.ReqBytes, Kind: kind, Stream: spec.ID, At: at,
	}}
}

func (s *streamState) advance() {
	at := s.next.at + s.gap
	s.next = s.generate(at)
}

// Result reports one stream's measured behavior.
type Result struct {
	Spec          StreamSpec
	Stats         memctrl.StreamStats
	AchievedGBps  float64
	MeanLatencyNs float64
	RowHitRate    float64
}

// System couples a controller with streams.
type System struct {
	Mapping memctrl.Mapping
	Timings dram.Timings
}

// DefaultSystem returns a 4-channel, 2-rank DDR5-3200 system of 32 Gb
// devices.
func DefaultSystem() System {
	return System{
		Mapping: memctrl.SkylakeMapping(4, 2, dram.Device32Gb),
		Timings: dram.DDR5_3200().WithTRFC(dram.Device32Gb.TRFC),
	}
}

// Run simulates the streams for `dur` of simulated time and returns
// per-stream results in spec order. Requests are merged across streams
// in arrival order (open loop: offered rate is maintained regardless
// of completion times, so queueing shows up as latency).
func (sys System) Run(specs []StreamSpec, dur dram.Ps) ([]Result, error) {
	for _, s := range specs {
		if err := s.Validate(sys.Mapping); err != nil {
			return nil, err
		}
	}
	ctl := memctrl.NewController(sys.Mapping, sys.Timings)
	states := make([]*streamState, len(specs))
	for i, s := range specs {
		states[i] = newStreamState(s)
	}
	for {
		// Pick the earliest pending event; k is small (≤ ~10 streams).
		best := -1
		for i, st := range states {
			if st.next.at > dur {
				continue
			}
			if best < 0 || st.next.at < states[best].next.at {
				best = i
			}
		}
		if best < 0 {
			break
		}
		ctl.Submit(states[best].next.req)
		states[best].advance()
	}
	out := make([]Result, len(specs))
	for i, s := range specs {
		st := ctl.Stream(s.ID)
		r := Result{Spec: s, Stats: st}
		r.AchievedGBps = memctrl.BandwidthGBps(st.Bytes, dur)
		r.MeanLatencyNs = st.MeanLatencyNs()
		if st.RowAccesses > 0 {
			r.RowHitRate = float64(st.RowHits) / float64(st.RowAccesses)
		}
		out[i] = r
	}
	return out, nil
}
