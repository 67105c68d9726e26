package nma

// Event-driven engine equivalence suite (DESIGN §6b): the idle
// fast-forward must be invisible at every observable surface — Stats,
// process-wide metrics, and flight-recorder dumps — across arbitrary
// submit/advance interleavings, and the pooled-op free list must hold
// Submit and advance at zero steady-state allocations.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/telemetry"
)

// ffRun drives one simulator through a deterministic random
// interleaving of steps actions (submit bursts, AdvanceTo jumps short
// and long, single window steps) with the given fast-forward setting
// and, when storm is not nil, a storm-scheduling injector armed. It
// returns every observable surface: Stats, a catalogue snapshot, and
// the sim-time recording.
func ffRun(seed int64, steps int, storm *fault.StormSpec, ff bool) (Stats, telemetry.Snapshot, *telemetry.Dump) {
	telemetry.ResetAll()
	SetFastForward(ff)
	defer SetFastForward(true)

	smp := telemetry.NewSampler(1 << 14)
	smp.SetSimEvery(7) // off-power-of-two so samples straddle skip chunks
	smp.Reset()
	smp.SetEnabled(true)

	c := cfg32()
	c.QueueDepth = 64
	s := NewSim(c)
	s.SetSampler(smp)
	if storm != nil {
		s.SetInjector(fault.NewInjector(fault.Plan{Seed: seed, Storm: *storm}))
	}
	trefi := c.Timings.TREFI

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0: // submit burst near the sim's upcoming refresh groups
			n := 1 + rng.Intn(8)
			base := int(s.window % int64(s.groups))
			for j := 0; j < n; j++ {
				dst := rng.Intn(s.groups)
				if rng.Intn(2) == 0 {
					dst = -1
				}
				s.Submit(Request{
					ID:       int64(i*100 + j),
					Kind:     OpKind(rng.Intn(2)),
					SrcGroup: (base + rng.Intn(32)) % s.groups,
					DstGroup: dst,
					Arrive:   s.Now() - trefi,
				})
			}
		case 1: // short advance
			s.AdvanceTo(s.Now() + dram.Ps(rng.Intn(16))*trefi)
		case 2: // long idle jump (thousands of windows)
			s.AdvanceTo(s.Now() + dram.Ps(1024+rng.Intn(4096))*trefi)
		case 3: // single steps
			for j := rng.Intn(5); j > 0; j-- {
				s.StepWindow()
			}
		}
	}
	// Drain: two retention walks complete everything still in flight.
	s.AdvanceTo(s.Now() + 2*c.Timings.Retention)
	return s.Stats(), telemetry.SnapshotAll(), smp.Dump()
}

// requireFFEquivalent runs one interleaving stepped and fast-forwarded
// and fails the test unless both leave the same Stats, the same
// catalogue snapshot and recordings DiffDumps finds no difference in
// (the recordings' JSON is then byte-identical). It returns the Stats.
func requireFFEquivalent(t *testing.T, run string, seed int64, steps int, storm *fault.StormSpec) Stats {
	t.Helper()
	stStep, snapStep, dumpStep := ffRun(seed, steps, storm, false)
	stFF, snapFF, dumpFF := ffRun(seed, steps, storm, true)
	if stStep != stFF {
		t.Fatalf("%s: Stats diverge:\nstepped: %+v\nfastfwd: %+v", run, stStep, stFF)
	}
	if !reflect.DeepEqual(snapStep, snapFF) {
		t.Fatalf("%s: metric snapshots diverge:\nstepped: %+v\nfastfwd: %+v", run, snapStep, snapFF)
	}
	if diffs := telemetry.DiffDumps(dumpStep, dumpFF); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("%s: %s", run, d)
		}
		t.Fatalf("%s: recordings diverge", run)
	}
	return stStep
}

// TestFastForwardEquivalence is the tentpole property test: N
// fast-forwarded windows are bit-identical to N stepped windows at
// every observable surface, across random interleavings.
func TestFastForwardEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		requireFFEquivalent(t, fmt.Sprintf("seed %d", seed), seed, 200, nil)
	}
}

// TestRunWindowsFastForwardEquivalence replays the same arrival stream
// through RunWindows with fast-forward on and off: identical stats and
// identical window counts (n windows exactly).
func TestRunWindowsFastForwardEquivalence(t *testing.T) {
	run := func(ff bool) Stats {
		SetFastForward(ff)
		defer SetFastForward(true)
		c := cfg32()
		s := NewSim(c)
		s.SetSampler(nil)
		trefi := c.Timings.TREFI
		rng := rand.New(rand.NewSource(3))
		var at dram.Ps
		i := 0
		next := func() (Request, bool) {
			if i >= 300 {
				return Request{}, false
			}
			// Sparse arrivals: bursts separated by long idle gaps.
			if i%10 == 0 {
				at += dram.Ps(500+rng.Intn(2000)) * trefi
			} else {
				at += dram.Ps(rng.Intn(3)) * trefi
			}
			i++
			return Request{
				ID:       int64(i),
				Kind:     OpKind(rng.Intn(2)),
				SrcGroup: rng.Intn(8192),
				DstGroup: -1,
				Arrive:   at,
			}, true
		}
		s.RunWindows(120_000, next)
		return s.Stats()
	}
	stepped := run(false)
	fast := run(true)
	if stepped != fast {
		t.Fatalf("RunWindows diverges:\nstepped: %+v\nfastfwd: %+v", stepped, fast)
	}
	if fast.Windows != 120_000 {
		t.Fatalf("Windows = %d, want 120000", fast.Windows)
	}
}

// TestPendingOnlySkip pins the pending-only fast path: with engine
// runs in flight and nothing queued or completed, the skip must stop
// at the earliest doneAt window, not fly past it.
func TestPendingOnlySkip(t *testing.T) {
	c := cfg32()
	s := NewSim(c)
	s.SetSampler(nil)
	// Source at group 0, flexible destination: window 0 reads, the
	// engine finishes during window 1, window 1 writes back.
	s.Submit(Request{ID: 1, Kind: CompressOp, SrcGroup: 0, DstGroup: -1})
	s.StepWindow()
	if len(s.pending) != 1 || s.queuedCount != 0 || s.completedCount != 0 {
		t.Fatalf("setup: pending=%d queued=%d completed=%d", len(s.pending), s.queuedCount, s.completedCount)
	}
	s.AdvanceTo(s.Now() + 10_000*c.Timings.TREFI)
	st := s.Stats()
	if st.Completed != 1 || st.WriteCond != 1 {
		t.Fatalf("pending op not completed across skip: %+v", st)
	}
	// One stepped window plus the 10001 windows whose execution time
	// falls inside the AdvanceTo horizon.
	if st.Windows != 10_002 {
		t.Fatalf("Windows = %d, want 10002", st.Windows)
	}
	// Exactly two windows did work (the read and the write-back).
	if st.BusyWindows != 2 {
		t.Fatalf("BusyWindows = %d, want 2", st.BusyWindows)
	}
}

// checkLists verifies the engine's container invariants: every queued
// op is on its SrcGroup list and the age-ordered queue, every COMPLETED
// op on its DstGroup list (or the trailing -1 list) and completedFIFO,
// links are symmetric and every tail is the last op, list lengths equal
// the counters, pending ops are PENDING, freed ops are unlinked, and the
// SPM holds one page per pending or COMPLETED op.
func checkLists(t *testing.T, s *Sim) {
	t.Helper()
	walk := func(name string, l *opList, k int, ok func(*op) bool) int {
		n := 0
		var prev *op
		for o := l.head; o != nil; o = o.links[k].next {
			if o.links[k].prev != prev {
				t.Fatalf("%s: op %d prev link asymmetric", name, o.req.ID)
			}
			if !ok(o) {
				t.Fatalf("%s: op %d (state %d, src %d, dst %d) does not belong", name, o.req.ID, o.state, o.req.SrcGroup, o.req.DstGroup)
			}
			prev = o
			n++
		}
		if l.tail != prev {
			t.Fatalf("%s: tail is not the last op", name)
		}
		return n
	}
	var queued, completed int
	for g := range s.queuedByGroup {
		queued += walk("queuedByGroup", &s.queuedByGroup[g], byGroup, func(o *op) bool {
			return o.state == opQueued && o.req.SrcGroup == g
		})
	}
	for b := range s.completedByGroup {
		completed += walk("completedByGroup", &s.completedByGroup[b], byGroup, func(o *op) bool {
			return o.state == opCompleted && s.completedBucket(o.req.DstGroup) == &s.completedByGroup[b]
		})
	}
	age := walk("queued", &s.queued, byAge, func(o *op) bool { return o.state == opQueued })
	if queued != s.queuedCount || age != s.queuedCount {
		t.Fatalf("queued lists hold %d by group, %d by age; queuedCount %d", queued, age, s.queuedCount)
	}
	age = walk("completedFIFO", &s.completedFIFO, byAge, func(o *op) bool { return o.state == opCompleted })
	if completed != s.completedCount || age != s.completedCount {
		t.Fatalf("completed lists hold %d by group, %d by age; completedCount %d", completed, age, s.completedCount)
	}
	for _, o := range s.pending {
		if o.state != opPending {
			t.Fatalf("pending op %d in state %d", o.req.ID, o.state)
		}
	}
	for _, o := range s.free {
		if o.state != opDone || o.links != [2]link{} {
			t.Fatalf("freed op %d still linked (state %d)", o.req.ID, o.state)
		}
	}
	if want := s.cfg.PageBytes * (len(s.pending) + s.completedCount); s.spmUsed != want {
		t.Fatalf("spmUsed = %d, want %d", s.spmUsed, want)
	}
}

// TestListInvariants checks the container invariants after every
// window of randomized runs that keep the queue-full, SPM-full and
// random-access paths busy: shallow queues, an 8-page SPM, and
// same-source-group double submits, so conditional service unlinks ops
// from the middle of the age lists and the random path unlinks them
// from group lists ahead of their group's window.
func TestListInvariants(t *testing.T) {
	for _, depth := range []int{8, 16, 32, 64} {
		c := cfg32()
		c.QueueDepth = depth
		c.SPMBytes = 8 * c.PageBytes
		s := NewSim(c)
		s.SetSampler(nil)
		s.SetTracer(nil)
		rng := rand.New(rand.NewSource(int64(depth)))
		id := int64(0)
		for round := 0; round < 400; round++ {
			for n := rng.Intn(6); n > 0; n-- {
				g := int(s.window+int64(rng.Intn(16))) % s.groups
				for j := 0; j < 2; j++ {
					dst := (g + 1 + rng.Intn(512)) % s.groups
					if rng.Intn(4) == 0 {
						dst = -1
					}
					id++
					s.Submit(Request{ID: id, Kind: OpKind(rng.Intn(2)), SrcGroup: g, DstGroup: dst, Arrive: s.Now()})
				}
			}
			for w := 1 + rng.Intn(6); w > 0; w-- {
				s.StepWindow()
				checkLists(t, s)
			}
			if rng.Intn(16) == 0 {
				s.AdvanceTo(s.Now() + dram.Ps(rng.Intn(256))*c.Timings.TREFI)
				checkLists(t, s)
			}
		}
		st := s.Stats()
		// A full SPM records one page short: under SPM pressure phase C
		// writes a page back before the window's occupancy is taken.
		if st.Fallbacks == 0 || st.ReadRand == 0 || st.WriteRand == 0 || st.MaxSPMOccupancy < c.SPMBytes-c.PageBytes {
			t.Fatalf("depth %d: run missed a path: %+v", depth, st)
		}
		s.AdvanceTo(s.Now() + 2*c.Timings.Retention)
		checkLists(t, s)
		if st := s.Stats(); st.Completed != st.Submitted-st.Fallbacks {
			t.Fatalf("depth %d: conservation broken: %+v", depth, st)
		}
	}
}

// TestSteadyStateZeroAllocs is the pooled-op regression gate: once the
// free list and the pending and span slices are warm, a Submit +
// AdvanceTo cycle allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	c := cfg32()
	s := NewSim(c)
	s.SetSampler(nil)
	s.SetTracer(nil)
	trefi := c.Timings.TREFI
	cycle := func() {
		g := int(s.window % int64(s.groups))
		s.Submit(Request{Kind: CompressOp, SrcGroup: g, DstGroup: -1, Arrive: s.Now() - trefi})
		s.AdvanceTo(s.Now() + 4*trefi)
	}
	// Warm over every refresh group: each cycle advances 5 windows
	// (gcd(5, 8192) = 1), so 8192 cycles touch every group's lists at
	// least once; run two laps for margin.
	for i := 0; i < 2*8192; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state Submit+AdvanceTo allocs/op = %v, want 0", allocs)
	}
}

// TestOpPoolRecycling checks the reclaim path: structs recycle through
// the free list, the pool stays bounded by peak in-flight ops, and every
// accepted request still completes across recycling.
func TestOpPoolRecycling(t *testing.T) {
	c := cfg32()
	c.QueueDepth = 8
	s := NewSim(c)
	s.SetSampler(nil)
	for round := 0; round < 50; round++ {
		g := int(s.window % int64(s.groups))
		// Same source group twice: the random path may serve one of
		// them before its group's window, unlinking it from both lists
		// while the other stays queued.
		s.Submit(Request{ID: int64(2 * round), Kind: CompressOp, SrcGroup: g, DstGroup: -1})
		s.Submit(Request{ID: int64(2*round + 1), Kind: DecompressOp, SrcGroup: g, DstGroup: -1})
		s.AdvanceTo(s.Now() + 6*c.Timings.TREFI)
	}
	s.AdvanceTo(s.Now() + 2*c.Timings.Retention)
	st := s.Stats()
	if st.Completed != st.Submitted-st.Fallbacks {
		t.Fatalf("conservation broken across recycling: %+v", st)
	}
	if len(s.free) == 0 {
		t.Fatal("free list never populated")
	}
	// The pool should be bounded by peak in-flight ops, far below the
	// 100 submissions.
	if got := len(s.free); got > 20 {
		t.Errorf("pool grew to %d structs for ≤16 in-flight ops", got)
	}
}

// TestRecycledOpsRace runs independent sims concurrently (sharing the
// process-wide metrics, as ranks in different goroutines would) so the
// race detector sweeps the recycled-op path and the bulk metric adds.
func TestRecycledOpsRace(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := cfg32()
			c.QueueDepth = 32
			s := NewSim(c)
			s.SetSampler(nil)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				g := int(s.window % int64(s.groups))
				s.Submit(Request{
					ID:       int64(i),
					Kind:     OpKind(rng.Intn(2)),
					SrcGroup: (g + rng.Intn(8)) % s.groups,
					DstGroup: -1,
					Arrive:   s.Now(),
				})
				s.AdvanceTo(s.Now() + dram.Ps(1+rng.Intn(64))*c.Timings.TREFI)
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// BenchmarkAdvanceIdle measures the event-driven engine's idle
// throughput: a 4-rank array fast-forwarding a 4096-window horizon per
// iteration. The stepped equivalent costs ~4096×4 StepWindow calls.
func BenchmarkAdvanceIdle(b *testing.B) {
	c := cfg32()
	a := NewArray(c, 4)
	now := a.Rank(0).Now()
	step := 4096 * c.Timings.TREFI
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += step
		a.AdvanceTo(now)
	}
}

// BenchmarkWindowSweep times the engine over mixed busy and idle
// traffic: per iteration a burst of 64 offloads lands a few groups ahead
// of each of four staggered ranks' refresh counters (busy head), then
// AdvanceTo crosses a 2048-window horizon the engine mostly
// fast-forwards (idle tail). pages/s counts offloads through the whole
// submit, advance and complete cycle.
func BenchmarkWindowSweep(b *testing.B) {
	const ranks, burst, windows = 4, 64, 2048
	c := cfg32()
	trefi := c.Timings.TREFI
	groups := c.Device.RefreshGroups()
	a := NewArray(c, ranks)
	// Rank k starts k·groups/ranks windows ahead, so anchor the horizon
	// to the last rank's clock: every rank then advances at least
	// windows per iteration.
	horizon := a.Rank(ranks-1).Now() - trefi
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := a.CurrentGroups()
		for j := 0; j < burst; j++ {
			rank := j % ranks
			req := Request{
				ID:       int64(i*burst + j),
				Kind:     OpKind(j % 2),
				SrcGroup: (cur[rank] + 1 + j/ranks) % groups,
				DstGroup: -1, // flexible: write-backs stay conditional too
				Arrive:   horizon,
			}
			if !a.Submit(rank, req) {
				b.Fatalf("iteration %d: submit rejected (the queue should never fill)", i)
			}
		}
		horizon += windows * trefi
		a.AdvanceTo(horizon)
	}
	b.StopTimer()
	if st := a.Stats(); st.Completed != st.Submitted {
		b.Fatalf("%d of %d offloads completed", st.Completed, st.Submitted)
	}
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "pages/s")
}

// SetTracer redirects span output to tr (nil disables tracing for this
// sim); tests inject private tracers here. Sims default to the
// process-wide telemetry.DefaultTracer.
func (s *Sim) SetTracer(tr *telemetry.Tracer) {
	s.tracer = tr
	s.track = -1
}
