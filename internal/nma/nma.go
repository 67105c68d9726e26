// Package nma models XFM's near-memory accelerator (§5–§6 of the
// paper): a (de)compression engine in the DIMM buffer device that
// accesses DRAM only during all-bank refresh windows (tRFC), batching
// the requests that arrive during each refresh interval (tREFI).
//
// Accesses are classified as conditional — the target row belongs to
// the refresh group being refreshed in the current window, so the row
// is already activated and can be streamed out at no extra activation
// cost — or random — the row is in a different subarray and is
// accessed in parallel with the ongoing refresh using the Fig. 7 bank
// extension, limited to one per tRFC in the paper's methodology (§7).
//
// Pages read from DRAM are staged in the ScratchPad Memory (SPM) with
// a PENDING tag, marked COMPLETED when the accelerator finishes, and
// written back to DRAM in a subsequent window (Fig. 10). When the SPM
// or the Compress_Request_Queue fills, back-pressure reaches the
// XFM driver, which falls back to the CPU (§6).
//
// The simulator is event-driven (DESIGN §6b): windows in which the
// NMA provably performs no access are fast-forwarded in O(1) instead
// of stepped one tREFI at a time, with bulk counter updates chunked so
// Stats, telemetry, and flight-recorder samples stay bit-identical to
// a stepped run. Each event is counted once, in the Sim's Stats; the
// catalogue's nma_* rows are fed from them by publish.
package nma

import (
	"fmt"
	"sync/atomic"

	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/telemetry"
)

// OpKind is the type of an offload operation.
type OpKind int

// Offload operation kinds.
const (
	CompressOp OpKind = iota
	DecompressOp
)

func (k OpKind) String() string {
	if k == CompressOp {
		return "compress"
	}
	return "decompress"
}

// Request is one page offload submitted to the NMA.
type Request struct {
	ID   int64
	Kind OpKind
	// SrcGroup is the refresh group of the DRAM row(s) holding the
	// source page; the read access is conditional exactly when the
	// current window refreshes this group.
	SrcGroup int
	// DstGroup is the refresh group of the destination row(s).
	DstGroup int
	// Arrive is the submission time.
	Arrive dram.Ps
}

// Config parameterizes the NMA model.
type Config struct {
	Device  dram.DeviceConfig
	Timings dram.Timings

	// SPMBytes is the ScratchPad Memory capacity (Fig. 12 sweeps 1,
	// 2, 4, 8 MB).
	SPMBytes int
	// AccessesPerTRFC is the number of conditional page accesses that
	// fit in one refresh window (Fig. 6: ≤ 4/3/2 for 32/16/8 Gb).
	AccessesPerTRFC int
	// RandomPerTRFC is the number of random accesses per window (§7:
	// "assume that only one random access can be performed during a
	// tRFC").
	RandomPerTRFC int
	// QueueDepth is the Compress_Request_Queue capacity in entries.
	QueueDepth int

	// PageBytes is the offload granularity (4 KiB). The SPM charges
	// every op a full page, compressed or not.
	PageBytes int
}

// CompressGBps and DecompressGBps are the accelerator engine
// throughputs: the AxDIMM prototype's 14.8 and 17.2 GB/s (§7).
const (
	CompressGBps   = 14.8
	DecompressGBps = 17.2
)

// DefaultConfig returns the paper's evaluation configuration for the
// given device: 2 MB SPM (the prototype's), device-specific access
// budget, one random access per window, 4 KiB pages.
func DefaultConfig(dev dram.DeviceConfig) Config {
	return Config{
		Device:          dev,
		Timings:         dram.DDR5_3200().WithTRFC(dev.TRFC),
		SPMBytes:        2 << 20,
		AccessesPerTRFC: dram.DeriveConditionalBudget(dev),
		RandomPerTRFC:   1,
		QueueDepth:      4096,
		PageBytes:       4096,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SPMBytes <= 0 || c.PageBytes <= 0 || c.QueueDepth <= 0 {
		return fmt.Errorf("nma: non-positive capacity in %+v", c)
	}
	if c.AccessesPerTRFC < 0 || c.RandomPerTRFC < 0 {
		return fmt.Errorf("nma: negative access budget")
	}
	if c.AccessesPerTRFC+c.RandomPerTRFC == 0 {
		return fmt.Errorf("nma: zero total access budget")
	}
	return c.Device.Validate()
}

// fastForwardDisabled gates the idle fast-forward globally. It exists
// so the equivalence of the event-driven engine to brute window
// stepping can be *demonstrated*, not just trusted: `xfmbench
// -nma-stepped` records a run with it off and `telemetryck -diff`
// proves the recording bit-identical to a fast-forwarded one.
var fastForwardDisabled atomic.Bool

// SetFastForward enables (the default) or disables the idle
// fast-forward for every Sim in the process. With it off the engine
// steps each refresh window individually, reproducing the pre-
// event-driven behavior exactly; observable results are identical
// either way, only the wall-clock cost differs.
func SetFastForward(on bool) { fastForwardDisabled.Store(!on) }

// opState tracks one in-flight operation inside the NMA.
type opState int

const (
	opQueued    opState = iota // in Compress_Request_Queue, not yet read
	opPending                  // page in SPM, engine running (PENDING tag)
	opCompleted                // engine done (COMPLETED tag), awaiting write-back
	opDone                     // written back to DRAM
)

// An op is on at most two intrusive lists at once, one through each of
// its links: a group list (queuedByGroup[SrcGroup] while queued,
// completedByGroup[DstGroup] while COMPLETED) and an age list (queued,
// then completedFIFO).
const (
	byGroup = iota
	byAge
)

// link is an op's position on one list; both pointers are nil off it.
type link struct{ prev, next *op }

type op struct {
	req    Request
	state  opState
	doneAt dram.Ps // when the engine finishes
	links  [2]link // indexed by byGroup / byAge
}

// opList is an intrusive FIFO threaded through link k of its ops. Every
// push appends and every removal unlinks in O(1), so the head is always
// the oldest op on the list and nothing allocates.
type opList struct{ head, tail *op }

func (l *opList) push(o *op, k int) {
	o.links[k].prev = l.tail
	if l.tail != nil {
		l.tail.links[k].next = o
	} else {
		l.head = o
	}
	l.tail = o
}

func (l *opList) remove(o *op, k int) {
	ln := &o.links[k]
	if ln.prev != nil {
		ln.prev.links[k].next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != nil {
		ln.next.links[k].prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	*ln = link{}
}

// Stats aggregates simulation results; it maps to Fig. 12's panels. It
// is also the engine's only count of its events: publish feeds the
// catalogue's nma_* rows from it.
type Stats struct {
	Submitted   int64
	Fallbacks   int64 // requests the driver redirected to the CPU
	Completed   int64
	Conditional int64 // conditional accesses performed (reads + write-backs)
	Random      int64 // random accesses performed
	ReadCond    int64
	ReadRand    int64
	WriteCond   int64
	WriteRand   int64

	MaxSPMOccupancy int
	SumLatencyPs    dram.Ps
	MaxLatencyPs    dram.Ps
	Windows         int64
	// BusyWindows counts refresh windows in which the NMA performed at
	// least one access — §5: "refresh cycles are no longer wasted
	// since useful computation occurs within the DRAM rank during an
	// all-bank refresh".
	BusyWindows int64
	// StormWindows counts refresh windows starved by an injected
	// refresh storm (the RogueRFM denial-of-service shape): refresh
	// management owned the DRAM and the NMA was offered zero slots.
	StormWindows int64
}

// FallbackRate returns fallbacks / submitted.
func (s Stats) FallbackRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Fallbacks) / float64(s.Submitted)
}

// ConditionalFraction returns the share of NMA accesses that were
// conditional (the paper reports the majority are, enabling the 10.1%
// access-energy saving).
func (s Stats) ConditionalFraction() float64 {
	tot := s.Conditional + s.Random
	if tot == 0 {
		return 0
	}
	return float64(s.Conditional) / float64(tot)
}

// BusyWindowFraction returns the share of refresh windows that
// carried NMA work.
func (s Stats) BusyWindowFraction() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.BusyWindows) / float64(s.Windows)
}

// SlotUtilization returns performed accesses over offered access slots
// (conditional budget + random slot per window): how much of the side
// channel the workload consumed.
func (s Stats) SlotUtilization(slotsPerWindow int) float64 {
	if s.Windows == 0 || slotsPerWindow <= 0 {
		return 0
	}
	return float64(s.Conditional+s.Random) / float64(s.Windows*int64(slotsPerWindow))
}

// MeanLatencyMs returns the mean offload completion latency in ms.
func (s Stats) MeanLatencyMs() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.SumLatencyPs) / float64(s.Completed) / float64(dram.Millisecond)
}

// Sim is the per-rank NMA simulator. It advances refresh window by
// refresh window, ingesting requests and scheduling conditional and
// random accesses.
//
// Internally every queued and every COMPLETED op sits on two intrusive
// lists, one for its refresh group (a flat slice of lists, so the hot
// loop performs no map hashing) and one in age order. A served op is
// unlinked from both at once, so every list head is the oldest op
// still waiting and each window's conditional matching costs
// O(budget), not O(queue). Windows in which no op is queued,
// completing, or awaiting write-back are fast-forwarded in bulk — the
// Fig. 12 sensitivity sweeps run tens of thousands of windows per
// configuration, most of them idle.
type Sim struct {
	cfg    Config
	groups int
	// slotsPerWin and bulkAdvance (advanceIdle, then publish: the
	// recording fast-forward's chunk) are fixed at construction so the
	// idle fast-forward performs no per-call closure allocation.
	slotsPerWin int64
	bulkAdvance func(k int64)

	window  int64  // next window index
	queued  opList // Compress_Request_Queue in arrival order (reads not yet done)
	spmUsed int

	// queuedByGroup lists queued ops by SrcGroup; completedByGroup lists
	// COMPLETED ops by DstGroup (the extra trailing list holds flexible
	// destinations, key -1). An op leaves its group list and its age
	// list (queued / completedFIFO) together when it is served.
	queuedByGroup    []opList
	completedByGroup []opList
	completedFIFO    opList // COMPLETED ops in completion order
	pending          []*op  // PENDING ops awaiting engine completion
	queuedCount      int    // ops on queued
	completedCount   int    // ops on completedFIFO

	// free recycles op structs once they are written back and unlinked
	// from every list, so a future Submit needs no allocation.
	free []*op

	stats Stats

	// pub is the part of stats the catalogue already holds and
	// lat[:nlat] the latencies of written-back ops it has not yet
	// observed, in completion order; publish moves the difference.
	pub  Stats
	lat  [latencyBuffer]float64
	nlat int

	// Span tracing (off unless the tracer is enabled): each busy window
	// becomes a "refresh-window" span on this sim's track with one
	// nested compress/decompress span per access performed inside it.
	tracer  *telemetry.Tracer
	track   int  // lazily allocated track id, -1 until first span
	traceOn bool // cached tracer.Enabled() for the current window
	winAcc  []windowAccess

	// Flight recorder (off unless the sampler is recording): while it
	// records, each stepped window publishes and ticks the simulated-time
	// clock domain so every Nth refresh window samples the catalogue
	// into time series; fast-forwarded ranges tick in bulk through
	// Sampler.SimTickRange, which lands samples on exactly the same
	// timestamps with exactly the same counter values.
	sampler *telemetry.Sampler

	// Fault injection (nil unless a chaos plan is armed): the injector
	// schedules refresh-storm windows in which refresh management owns
	// the DRAM and the side channel offers zero access slots. All
	// injector methods are nil-safe, so the default path pays one nil
	// check per window.
	inj *fault.Injector
}

// latencyBuffer is how many completed-op latencies a Sim holds before
// it observes them into nma_offload_latency_ps in one call.
const latencyBuffer = 256

// windowAccess remembers one access performed in the current window so
// its span can be laid out once the window's accesses are known.
type windowAccess struct {
	o      *op
	random bool
	write  bool
}

// NewSim builds a simulator; it panics on invalid configuration, which
// indicates a programming error in the experiment harness.
func NewSim(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	groups := cfg.Device.RefreshGroups()
	s := &Sim{
		cfg:              cfg,
		groups:           groups,
		slotsPerWin:      int64(cfg.AccessesPerTRFC + cfg.RandomPerTRFC),
		queuedByGroup:    make([]opList, groups),
		completedByGroup: make([]opList, groups+1),
		tracer:           telemetry.DefaultTracer(),
		track:            -1,
		sampler:          telemetry.DefaultSampler(),
	}
	s.bulkAdvance = func(k int64) {
		s.advanceIdle(k)
		s.publish()
	}
	return s
}

// SetSampler redirects flight-recorder clock ticks to smp (nil
// disconnects this sim from the recorder); tests inject private
// samplers here. Sims default to telemetry.DefaultSampler.
//
//xfm:ignore unreachable test seam: TestTimeseriesBitDeterministic (internal/xfm) and the nma engine/storm tests record into private samplers
func (s *Sim) SetSampler(smp *telemetry.Sampler) { s.sampler = smp }

// SetInjector arms fault injection on this sim (nil disarms): the
// injector's storm schedule starves refresh windows of access slots.
func (s *Sim) SetInjector(in *fault.Injector) { s.inj = in }

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Stats returns the accumulated statistics.
func (s *Sim) Stats() Stats { return s.stats }

// Now returns the execution time of the next refresh window: requests
// arriving during interval k are batched and executed during the tRFC
// at the end of the interval (Fig. 10), i.e. at (k+1) × tREFI.
func (s *Sim) Now() dram.Ps { return (s.window + 1) * s.cfg.Timings.TREFI }

// SPMUsed returns the current SPM occupancy in bytes.
//
//xfm:ignore unreachable observer: TestSPMPressureBlocksReads and TestConservation watch the SPM drain, TestDriverSPCapacityCountsMMIO (internal/xfm) reads it through the driver
func (s *Sim) SPMUsed() int { return s.spmUsed }

// QueueLen returns the current Compress_Request_Queue depth.
//
//xfm:ignore unreachable observer: TestSPMPressureBlocksReads and TestConservation check the queue drains; the retired RegisterFile (internal/xfm/mmio_retired_test.go) reads it
func (s *Sim) QueueLen() int { return s.queuedCount }

// completedBucket maps a destination group key to its list (key -1, a
// flexible destination, lives in the trailing list).
func (s *Sim) completedBucket(key int) *opList {
	if key < 0 {
		return &s.completedByGroup[s.groups]
	}
	return &s.completedByGroup[key]
}

// newOp takes an op from the free list (or allocates the pool's next
// struct) and initializes it for req.
func (s *Sim) newOp(req Request) *op {
	if n := len(s.free); n > 0 {
		o := s.free[n-1]
		s.free = s.free[:n-1]
		*o = op{req: req}
		return o
	}
	return &op{req: req}
}

// Submit offers a request to the NMA. It returns false when the
// request was rejected and the driver must fall back to the CPU.
// Back-pressure propagates exactly as §6 describes: a full SPM stalls
// reads, stalled reads fill the Compress_Request_Queue, and a full
// queue triggers CPU_Fallback. Steady-state Submit performs no heap
// allocation: op structs recycle through the free list and every
// container reuses its backing array. A request naming a refresh group
// outside the device panics before it is counted.
func (s *Sim) Submit(req Request) bool {
	ok := s.submit(req)
	s.publish()
	return ok
}

func (s *Sim) submit(req Request) bool {
	if req.SrcGroup < 0 || req.SrcGroup >= s.groups || req.DstGroup < -1 || req.DstGroup >= s.groups {
		panic(fmt.Sprintf("nma: refresh group out of range in %+v", req))
	}
	s.stats.Submitted++
	if s.queuedCount >= s.cfg.QueueDepth {
		s.stats.Fallbacks++
		return false
	}
	o := s.newOp(req)
	s.queued.push(o, byAge)
	s.queuedByGroup[req.SrcGroup].push(o, byGroup)
	s.queuedCount++
	return true
}

// spmHasRoom reports whether one more page read fits in the SPM right
// now. Every op is charged a full page while resident: a compress op
// stages the uncompressed page (the larger of its input and output, an
// upper bound consistent with the driver's lazy tracking), and a
// decompress op's output buffer is a full page.
func (s *Sim) spmHasRoom() bool {
	return s.spmUsed+s.cfg.PageBytes <= s.cfg.SPMBytes
}

// StepWindow advances the simulation by one refresh window, performing
// NMA accesses inside it. Returns the window's refresh group.
//
//xfm:ignore unreachable the single-window step of the nma engine tests (TestArrayStagger, TestNMARegistryPinned) and TestRegisterFlexibleDestination (internal/xfm); AdvanceTo and RunWindows step through step
func (s *Sim) StepWindow() int {
	group := s.step()
	s.publish()
	return group
}

func (s *Sim) step() int {
	group := int(s.window % int64(s.groups))
	now := s.Now()
	cond := s.cfg.AccessesPerTRFC
	rand := s.cfg.RandomPerTRFC
	if s.inj.StormWindow(s.window) {
		// Injected refresh storm (the RogueRFM shape): refresh
		// management owns the whole tRFC, the side channel offers zero
		// access slots, and queued work simply ages one window.
		cond, rand = 0, 0
		s.stats.StormWindows++
	}
	condBudget, randBudget := cond, rand
	s.traceOn = s.tracer != nil && s.tracer.Enabled()
	if s.traceOn {
		s.winAcc = s.winAcc[:0]
	}

	// Engine completions since the last window. The engine finishes a
	// page within roughly one window (4 KiB at ≥14 GB/s ≪ tREFI), so
	// this list stays short.
	keep := s.pending[:0]
	for _, o := range s.pending {
		if o.state == opPending && o.doneAt <= now {
			o.state = opCompleted
			s.completedCount++
			s.completedBucket(o.req.DstGroup).push(o, byGroup) // -1 list holds flexible destinations
			s.completedFIFO.push(o, byAge)
		} else {
			keep = append(keep, o)
		}
	}
	s.pending = keep

	// Phase A: conditional write-backs. COMPLETED pages whose
	// destination row is being refreshed now — or whose destination is
	// flexible (DstGroup < 0, a group-aware allocator) — go back at no
	// activation cost.
	for cond > 0 {
		o := s.completedByGroup[group].head
		if o == nil {
			o = s.completedBucket(-1).head
		}
		if o == nil {
			break
		}
		s.writeBack(o, now, false)
		cond--
	}
	// Phase B: conditional reads. Queued requests whose source row is
	// being refreshed now are read into the SPM, space permitting.
	for cond > 0 {
		o := s.queuedByGroup[group].head
		if o == nil || !s.spmHasRoom() {
			break
		}
		s.startRead(o, now, false)
		cond--
	}
	// Phase C: random accesses. Random accesses cost activation energy
	// and are rationed (§7: one per tRFC), so the scheduler spends them
	// only under pressure: when the SPM is filling with completed pages
	// whose destination windows are far away, when the request queue is
	// filling faster than conditional reads drain it, or when an
	// operation has aged past a full retention walk (its window came up
	// but the conditional budget was exhausted).
	aged := now - s.cfg.Timings.Retention
	for rand > 0 {
		var victim *op
		spmPressure := s.spmUsed > s.cfg.SPMBytes*3/4
		queuePressure := s.queuedCount > s.cfg.QueueDepth*3/4
		switch {
		case spmPressure:
			victim = s.completedFIFO.head
		case queuePressure:
			victim = s.queued.head
		}
		if victim == nil {
			// Age-based rescue, oldest first across both stages.
			if o := s.completedFIFO.head; o != nil && o.doneAt <= aged {
				victim = o
			} else if o := s.queued.head; o != nil && o.req.Arrive <= aged {
				victim = o
			}
		}
		if victim != nil && victim.state == opQueued && !s.spmHasRoom() {
			// A blocked read cannot proceed; try draining instead.
			victim = s.completedFIFO.head
		}
		if victim == nil {
			break
		}
		if victim.state == opQueued {
			s.startRead(victim, now, true)
		} else {
			s.writeBack(victim, now, true)
		}
		rand--
	}

	if s.spmUsed > s.stats.MaxSPMOccupancy {
		s.stats.MaxSPMOccupancy = s.spmUsed
	}
	condDone := condBudget - cond
	randDone := randBudget - rand
	if condDone+randDone > 0 {
		s.stats.BusyWindows++
	}
	if s.traceOn && len(s.winAcc) > 0 {
		s.emitWindowSpans(group, now)
	}
	s.stats.Windows++
	s.window++
	if s.sampler != nil && s.sampler.Recording() {
		// A sample reads the catalogue, so it must hold this window.
		s.publish()
		s.sampler.SimTick(int64(now))
	}
	return group
}

// idleSkip bulk-advances up to max windows during which the simulator
// provably performs no access: nothing queued, nothing awaiting
// write-back, and every pending op's engine completion lands after the
// last skipped window. It returns the number of windows skipped (0
// when the next window might do work, or when fast-forward is off).
// The skipped range is observably identical to stepping each window:
// the same counters advance by the same totals, gauges publish the
// same values, and sampler ticks land on the same timestamps.
func (s *Sim) idleSkip(max int64) int64 {
	if max <= 0 || s.queuedCount > 0 || s.completedCount > 0 || fastForwardDisabled.Load() {
		return 0
	}
	if len(s.pending) > 0 {
		// Only engine runs are in flight: every window before the
		// earliest doneAt performs nothing (phase A/B have no
		// COMPLETED/queued ops; phase C's pressure and age rescues
		// only consider those same sets). The completing window itself
		// must be stepped.
		minDone := s.pending[0].doneAt
		for _, o := range s.pending[1:] {
			if o.doneAt < minDone {
				minDone = o.doneAt
			}
		}
		trefi := s.cfg.Timings.TREFI
		skippable := (minDone+trefi-1)/trefi - s.window - 1
		if skippable < max {
			max = skippable
		}
	}
	if max <= 0 {
		return 0
	}
	s.skipWindows(max)
	return max
}

// skipWindows advances n provably-idle windows in O(1): the window
// clock and the per-window Stats move in bulk. While the sampler
// records, Sampler.SimTickRange chunks the range and each chunk is
// published before the sample it ends in, so every flight-recorder
// sample in the range reads exactly the catalogue state a stepped run
// would have produced at that timestamp.
func (s *Sim) skipWindows(n int64) {
	if s.sampler != nil && s.sampler.Recording() {
		s.sampler.SimTickRange(int64(s.Now()), int64(s.cfg.Timings.TREFI), n, s.bulkAdvance)
	} else {
		s.advanceIdle(n)
	}
}

// advanceIdle applies k idle windows' worth of bulk updates: the same
// Stats a stepped idle window moves, coalesced.
func (s *Sim) advanceIdle(k int64) {
	if k <= 0 {
		return
	}
	// Storm windows inside the skipped range offered zero slots; count
	// them arithmetically so a fast-forwarded run publishes exactly the
	// totals a stepped run would (skipping is already restricted to
	// windows that perform no accesses, storm or not).
	s.stats.StormWindows += s.inj.StormWindowsIn(s.window, s.window+k)
	s.stats.Windows += k
	s.window += k
}

// publish moves every event counted since the last publish into the
// catalogue's nma_* rows: the deltas of Stats, the gauges if a window
// ran since, and the buffered latencies in completion order. It runs
// before every flight-recorder tick while the sampler records and
// before each exported entry point returns, so a sample or a caller
// reads exactly the rows a per-event count would have built: sims
// run one after another (DESIGN §7b), and every other sim published
// before its last call returned. At each of those points, if a window
// ran since the last publish, it was the last thing to move the queue
// or the SPM (a skipped range leaves both constant), so their current
// values are the gauges a per-window store would have left.
func (s *Sim) publish() {
	st, p := &s.stats, &s.pub
	if st.Windows != p.Windows {
		telemetry.NMAQueueDepth.SetInt(int64(s.queuedCount))
		telemetry.NMASPMUsedBytes.SetInt(int64(s.spmUsed))
	}
	addDelta(telemetry.NMARequestsSubmitted, st.Submitted-p.Submitted)
	addDelta(telemetry.NMARequestsRejected, st.Fallbacks-p.Fallbacks)
	addDelta(telemetry.NMARequestsCompleted, st.Completed-p.Completed)
	addDelta(telemetry.NMAWindows, st.Windows-p.Windows)
	addDelta(telemetry.NMABusyWindows, st.BusyWindows-p.BusyWindows)
	addDelta(telemetry.NMAStormWindows, st.StormWindows-p.StormWindows)
	// A storm window offers no slots, every other window the full budget.
	addDelta(telemetry.NMASlotsOffered, (st.Windows-st.StormWindows-p.Windows+p.StormWindows)*s.slotsPerWin)
	addDelta(telemetry.NMAConditionalAccesses, st.Conditional-p.Conditional)
	addDelta(telemetry.NMARandomAccesses, st.Random-p.Random)
	*p = *st
	s.observeLatencies()
}

func addDelta(c *telemetry.Counter, d int64) {
	if d != 0 {
		c.Add(d)
	}
}

// observeLatencies empties the latency buffer into the histogram.
func (s *Sim) observeLatencies() {
	if s.nlat > 0 {
		telemetry.NMAOffloadLatencyPs.ObserveAll(s.lat[:s.nlat])
		s.nlat = 0
	}
}

// AdvanceTo steps refresh windows until the window clock passes now,
// fast-forwarding through idle stretches. Equivalent to calling
// StepWindow while Now() <= now.
func (s *Sim) AdvanceTo(now dram.Ps) {
	trefi := s.cfg.Timings.TREFI
	for s.Now() <= now {
		// Number of windows whose execution time is still <= now.
		if s.idleSkip(now/trefi-s.window) > 0 {
			continue
		}
		s.step()
	}
	s.publish()
}

// emitWindowSpans records the window that just executed as a
// "refresh-window" span and tiles the accesses it performed across the
// tRFC as nested compress/decompress spans, so the Chrome trace shows
// compression bursts packed inside refresh windows (Fig. 10).
func (s *Sim) emitWindowSpans(group int, start dram.Ps) {
	if s.track < 0 {
		s.track = s.tracer.NewTrack("nma")
	}
	end := start + s.cfg.Timings.TRFC
	s.tracer.Span(s.track, "refresh-window", "dram", start, end, map[string]int64{
		"group":  int64(group),
		"window": s.window,
	})
	slot := s.cfg.Timings.TRFC / dram.Ps(len(s.winAcc))
	for i, a := range s.winAcc {
		phase := int64(0) // read into SPM
		if a.write {
			phase = 1 // write-back to DRAM
		}
		random := int64(0)
		if a.random {
			random = 1
		}
		s.tracer.Span(s.track, a.o.req.Kind.String(), "nma",
			start+dram.Ps(i)*slot, start+dram.Ps(i+1)*slot, map[string]int64{
				"req":       a.o.req.ID,
				"random":    random,
				"writeback": phase,
			})
	}
}

// startRead unlinks a queued op from both of its lists, moves it into
// the SPM and starts its engine run.
func (s *Sim) startRead(o *op, now dram.Ps, random bool) {
	s.queuedByGroup[o.req.SrcGroup].remove(o, byGroup)
	s.queued.remove(o, byAge)
	s.queuedCount--
	o.state = opPending
	s.spmUsed += s.cfg.PageBytes
	gbps := float64(CompressGBps)
	if o.req.Kind == DecompressOp {
		gbps = DecompressGBps
	}
	computePs := dram.Ps(float64(s.cfg.PageBytes) / (gbps * 1e9) * float64(dram.Second))
	o.doneAt = now + s.cfg.Timings.TRFC + computePs
	s.pending = append(s.pending, o)
	s.countAccess(random)
	if random {
		s.stats.ReadRand++
	} else {
		s.stats.ReadCond++
	}
	if s.traceOn {
		s.winAcc = append(s.winAcc, windowAccess{o: o, random: random})
	}
}

// writeBack finishes an op: it is unlinked from both of its lists, its
// output leaves the SPM and the struct returns to the free list. The
// struct is not reused before the next Submit, so same-window readers
// (span emission) still see its request fields.
func (s *Sim) writeBack(o *op, now dram.Ps, random bool) {
	s.completedBucket(o.req.DstGroup).remove(o, byGroup)
	s.completedFIFO.remove(o, byAge)
	s.completedCount--
	o.state = opDone
	s.spmUsed -= s.cfg.PageBytes
	s.countAccess(random)
	if random {
		s.stats.WriteRand++
	} else {
		s.stats.WriteCond++
	}
	s.stats.Completed++
	lat := now + s.cfg.Timings.TRFC - o.req.Arrive
	s.stats.SumLatencyPs += lat
	if s.nlat == len(s.lat) {
		s.observeLatencies()
	}
	s.lat[s.nlat] = float64(lat)
	s.nlat++
	if lat > s.stats.MaxLatencyPs {
		s.stats.MaxLatencyPs = lat
	}
	if s.traceOn {
		s.winAcc = append(s.winAcc, windowAccess{o: o, random: random, write: true})
	}
	s.free = append(s.free, o)
}

func (s *Sim) countAccess(random bool) {
	if random {
		s.stats.Random++
	} else {
		s.stats.Conditional++
	}
}

// RunWindows steps n windows, pulling arrivals from next, which must
// return requests in nondecreasing Arrive order and ok=false when the
// stream ends. Arrivals due before each window's start are submitted
// before the window executes. Idle stretches between arrivals are
// fast-forwarded.
func (s *Sim) RunWindows(n int, next func() (Request, bool)) {
	pendingValid := false
	exhausted := false
	var pending Request
	trefi := s.cfg.Timings.TREFI
	remaining := int64(n)
	for remaining > 0 {
		windowStart := s.Now()
		for !exhausted {
			if !pendingValid {
				r, ok := next()
				if !ok {
					exhausted = true
					break
				}
				pending = r
				pendingValid = true
			}
			if pending.Arrive > windowStart {
				break
			}
			s.submit(pending)
			pendingValid = false
		}
		max := remaining
		if pendingValid {
			// Windows executing before the next arrival see no
			// submissions; the arrival's own window must be stepped
			// through the submit loop above.
			untilArrival := (int64(pending.Arrive)+trefi-1)/trefi - s.window - 1
			if untilArrival < max {
				max = untilArrival
			}
		}
		if skipped := s.idleSkip(max); skipped > 0 {
			remaining -= skipped
			continue
		}
		s.step()
		remaining--
	}
	s.publish()
}
