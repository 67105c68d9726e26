package nma

// The registry oracle: what the NMA engine publishes into the
// process-wide registry, pinned as a digest of every nma_* row after
// every exported call. It was recorded on the engine that wrote each
// event to the registry as it happened, so any change to how the rows
// are fed must reproduce that engine's registry at every call boundary
// and every flight-recorder sample, not just its own earlier output.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/telemetry"
)

// foldNMARows writes every nma_* entry of snap to w, one line each,
// sorted: counters, gauges (derived ones included), then each
// histogram's count, sum, min, max and bucket counts. %v prints a
// float64 in its shortest exact form, so a one-ulp change in a sum
// changes the bytes.
func foldNMARows(w io.Writer, snap telemetry.Snapshot) {
	var rows []string
	for k, v := range snap.Counters {
		rows = append(rows, fmt.Sprintf("c %s %d", k, v))
	}
	for k, v := range snap.Gauges {
		rows = append(rows, fmt.Sprintf("g %s %v", k, v))
	}
	for k, h := range snap.Histograms {
		rows = append(rows, fmt.Sprintf("h %s %d %v %v %v %v", k, h.Count, h.Sum, h.Min, h.Max, h.Counts))
	}
	sort.Strings(rows)
	for _, r := range rows {
		if strings.HasPrefix(r[2:], "nma_") {
			fmt.Fprintln(w, r)
		}
	}
}

// registryOracleRun drives the engine through every exported entry
// point, folding the registry's nma_* rows into a running SHA-256 after
// each call, and returns the digest, the final registry snapshot and
// the recording of the one sim that ticks a recording sampler.
func registryOracleRun(t *testing.T) (string, telemetry.Snapshot, []byte) {
	t.Helper()
	reg := telemetry.DefaultRegistry()
	reg.ResetAll()
	digest := sha256.New()
	fold := func() { foldNMARows(digest, reg.Snapshot()) }

	c := cfg32()
	c.QueueDepth = 32
	trefi := c.Timings.TREFI
	rng := rand.New(rand.NewSource(34))
	id := int64(0)
	req := func(s *Sim) Request {
		id++
		dst := rng.Intn(s.groups)
		if rng.Intn(3) == 0 {
			dst = -1
		}
		return Request{
			ID:       id,
			Kind:     OpKind(rng.Intn(2)),
			SrcGroup: int(s.window+int64(rng.Intn(48))) % s.groups,
			DstGroup: dst,
			Arrive:   s.Now() - trefi,
		}
	}
	// drive makes a random run of exported calls on s: a Submit burst (deep
	// enough to hit the 32-entry queue), a Submit-only call, single
	// StepWindows, or a short or long AdvanceTo.
	drive := func(s *Sim) {
		switch rng.Intn(5) {
		case 0:
			for n := 1 + rng.Intn(24); n > 0; n-- {
				s.Submit(req(s))
				fold()
			}
		case 1:
			s.Submit(req(s))
			fold()
		case 2:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				s.StepWindow()
				fold()
			}
		case 3:
			s.AdvanceTo(s.Now() + dram.Ps(rng.Intn(24))*trefi)
			fold()
		case 4:
			s.AdvanceTo(s.Now() + dram.Ps(512+rng.Intn(4096))*trefi)
			fold()
		}
	}

	// Two sims used one after the other, call by call: the gauges must
	// hold the last window either of them ran. a ticks the (idle)
	// default sampler, b none.
	a, b := NewSim(c), NewSim(c)
	b.SetSampler(nil)
	for i := 0; i < 300; i++ {
		if rng.Intn(2) == 0 {
			drive(a)
		} else {
			drive(b)
		}
	}

	// A staggered 4-rank array.
	arr := NewArray(c, 4)
	for i := 0; i < 4; i++ {
		arr.Rank(i).SetSampler(nil)
	}
	for i := 0; i < 120; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			for n := 1 + rng.Intn(16); n > 0; n-- {
				arr.Submit(-1, req(arr.Rank(0)))
				fold()
			}
		case 2:
			arr.AdvanceTo(arr.Rank(0).Now() + dram.Ps(rng.Intn(32))*trefi)
			fold()
		case 3:
			for _, s := range arr.sims {
				s.StepWindow()
				fold()
			}
		}
	}

	// A storm-injected sim that ticks a recording sampler, so the
	// registry is also read at samples inside stepped windows and
	// inside fast-forwarded ranges.
	smp := telemetry.NewSampler(reg, 1<<14)
	smp.SetSimEvery(31)
	smp.Reset()
	smp.SetEnabled(true)
	st := NewSim(c)
	st.SetSampler(smp)
	st.SetInjector(fault.NewInjector(fault.Plan{Seed: 34, Storm: fault.StormSpec{Period: 700, Len: 90, Phase: 40}}))
	for i := 0; i < 120; i++ {
		drive(st)
	}
	st.AdvanceTo(st.Now() + 2*c.Timings.Retention)
	fold()
	var rec bytes.Buffer
	if err := smp.WriteCSV(&rec); err != nil {
		t.Fatal(err)
	}

	// RunWindows over a saturating stream at the default queue depth. It
	// opens with a backlog older than the sim's clock — requests that
	// arrived at time zero while the sim idled to 2^42 ps — so the
	// latency histogram's sum passes 2^53 ps and every later latency is
	// added to a sum that rounds: a sum folded out of event order would
	// land on different bits.
	sc := cfg32()
	sat := NewSim(sc)
	sat.SetSampler(nil)
	sat.AdvanceTo(1 << 42)
	fold()
	backlog := sc.QueueDepth + 512
	var at dram.Ps
	next := func() (Request, bool) {
		id++
		r := Request{ID: id, Kind: OpKind(rng.Intn(2)), SrcGroup: rng.Intn(sat.groups), DstGroup: rng.Intn(sat.groups)}
		if backlog > 0 {
			backlog--
			return r, true
		}
		if at == 0 {
			at = sat.Now()
		}
		at += trefi / 3
		r.Arrive = at
		if rng.Intn(4) == 0 {
			r.DstGroup = -1
		}
		return r, true
	}
	for i := 0; i < 6; i++ {
		sat.RunWindows(4096, next)
		fold()
	}
	return hex.EncodeToString(digest.Sum(nil)), reg.Snapshot(), rec.Bytes()
}

// TestNMARegistryPinned pins the registry oracle: the digest over every
// exported call, the final nma_* rows, and the storm sim's recording.
// The values were recorded on the engine that bumped a registry handle
// at every event.
func TestNMARegistryPinned(t *testing.T) {
	const (
		wantDigest    = "0c67a3e637a360e57cb3fbd1080c67f6f64b3024749cd5be209c35138c5b0d52"
		wantRecording = "1082796ec06288e8c160a26dfe849f8fe6b92afa3779badb154963373a512dcf"
		wantFinal     = `c nma_busy_windows_total 26273
c nma_conditional_accesses_total 27460
c nma_random_accesses_total 24750
c nma_requests_completed_total 25845
c nma_requests_rejected_total 49319
c nma_requests_submitted_total 79927
c nma_slots_offered_total 6828875
c nma_storm_windows_total 10166
c nma_windows_total 1375941
g nma_queue_depth 4095
g nma_slot_utilization 0.007645476011788179
g nma_spm_used_bytes 1.581056e+06
h nma_offload_latency_ps 25845 1.8408751232002556e+16 8.2225e+06 4.42981291e+12 [0 0 0 0 15 51 52 124 142 55 125 304 1573 3081 5767 10458 2 0 4096]
`
	)
	digest, snap, rec := registryOracleRun(t)
	var final bytes.Buffer
	foldNMARows(&final, snap)
	if got := final.String(); got != wantFinal {
		t.Errorf("final nma_* rows moved:\n got:\n%s\nwant:\n%s", got, wantFinal)
	}
	if digest != wantDigest {
		t.Errorf("registry digest over every call = %s, want %s", digest, wantDigest)
	}
	if got := sha256.Sum256(rec); hex.EncodeToString(got[:]) != wantRecording {
		t.Errorf("storm sim recording digest = %x, want %s", got, wantRecording)
	}
	if h := snap.Histograms["nma_offload_latency_ps"]; h.Sum < 1<<53 {
		t.Errorf("latency sum %v never passed 2^53 ps", h.Sum)
	}
}
