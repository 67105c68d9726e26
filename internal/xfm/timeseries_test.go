package xfm

import (
	"bytes"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/telemetry"
)

// recordTimeseries runs a fixed batched swap workload against an XFM
// backend with the given worker count, recording the default series
// catalogue in the simulated-time clock domain, and returns the JSON
// artifact bytes.
func recordTimeseries(t *testing.T, workers int) []byte {
	t.Helper()
	// Zero the process-wide metrics so gauges start from the same state
	// on every run; the sampler re-baselines counters itself.
	telemetry.DefaultRegistry().ResetAll()
	smp := telemetry.NewSampler(telemetry.DefaultRegistry(), 256)
	smp.SetSimEvery(4)
	smp.Reset()
	smp.SetEnabled(true)

	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	sim.SetSampler(smp)
	b, err := NewShardedBackend(compress.NewLZFast(), 1<<30, 8, workers,
		NewDriver(sim), memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
	if err != nil {
		t.Fatal(err)
	}

	ids := batchIDs(48)
	outs := make([]sfm.PageOut, len(ids))
	for i, id := range ids {
		outs[i] = sfm.PageOut{ID: id, Data: compressiblePage(id)}
	}
	ins := make([]sfm.PageIn, len(ids))
	for i, id := range ids {
		ins[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
	}
	// Several waves spaced widely enough that AdvanceTo steps many
	// refresh windows (and so takes many samples) between batches.
	now := 50 * dram.Microsecond
	for wave := 0; wave < 4; wave++ {
		if err := sfm.FirstError(b.SwapOutBatch(now, outs)); err != nil {
			t.Fatal(err)
		}
		now += 50 * dram.Microsecond
		if err := sfm.FirstError(b.SwapInBatch(now, ins, true)); err != nil {
			t.Fatal(err)
		}
		now += 50 * dram.Microsecond
	}
	smp.FinalSample()
	smp.SetEnabled(false)

	var buf bytes.Buffer
	if err := smp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := telemetry.ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Samples < 8 {
		t.Fatalf("workload produced only %d samples; widen the waves", d.Samples)
	}
	return buf.Bytes()
}

// TestTimeseriesBitDeterministic pins the ISSUE acceptance criterion:
// for a fixed seed, simulated-time series are bit-identical across
// reruns and across worker counts. Samples fire on nma.Sim's serial
// window-stepping path after each batch's parallel phase has fully
// landed its counter bumps, and the default catalogue excludes
// wall-clock instruments, so the recorded bytes must not depend on
// scheduling.
func TestTimeseriesBitDeterministic(t *testing.T) {
	first := recordTimeseries(t, 1)
	rerun := recordTimeseries(t, 1)
	if !bytes.Equal(first, rerun) {
		t.Fatal("time-series artifact differs across reruns at workers=1")
	}
	parallel := recordTimeseries(t, 4)
	if !bytes.Equal(first, parallel) {
		t.Fatal("time-series artifact differs between workers=1 and workers=4")
	}
}

// TestTimeseriesFastForwardInvariant extends the determinism contract
// across the NMA engine's idle fast-forward: the same workload
// recorded with every refresh window stepped must produce the same
// bytes as the fast-forwarded default (DESIGN §6b). CI proves the
// same property on the full emulator via `telemetryck -diff`.
func TestTimeseriesFastForwardInvariant(t *testing.T) {
	fast := recordTimeseries(t, 1)
	nma.SetFastForward(false)
	defer nma.SetFastForward(true)
	stepped := recordTimeseries(t, 1)
	if bytes.Equal(fast, stepped) {
		return
	}
	a, err := telemetry.ReadDump(bytes.NewReader(fast))
	if err != nil {
		t.Fatal(err)
	}
	b, err := telemetry.ReadDump(bytes.NewReader(stepped))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range telemetry.DiffDumps(a, b) {
		t.Errorf("diff: %s", d)
	}
	t.Fatal("fast-forwarded recording differs from stepped recording")
}
