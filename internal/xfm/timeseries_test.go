package xfm

import (
	"errors"
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
// catalogue in the simulated-time clock domain, and returns the
// recording.
func recordTimeseries(t *testing.T, workers int) *telemetry.Dump {
	t.Helper()
	// Zero the process-wide metrics so gauges start from the same state
	// on every run; the sampler re-baselines counters itself.
	telemetry.ResetAll()
	smp := telemetry.NewSampler(256)
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
		if err := errors.Join(b.SwapOutBatch(now, outs)...); err != nil {
			t.Fatal(err)
		}
		now += 50 * dram.Microsecond
		if err := errors.Join(b.SwapInBatch(now, ins, true)...); err != nil {
			t.Fatal(err)
		}
		now += 50 * dram.Microsecond
	}
	smp.FinalSample()
	smp.SetEnabled(false)

	d := smp.Dump()
	if d.Samples < 8 {
		t.Fatalf("workload produced only %d samples; widen the waves", d.Samples)
	}
	return d
}

// requireSameRecording fails the test, naming each divergent series,
// unless DiffDumps finds no difference between the two recordings
// (their JSON is then byte-identical).
func requireSameRecording(t *testing.T, what string, a, b *telemetry.Dump) {
	t.Helper()
	if diffs := telemetry.DiffDumps(a, b); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("diff: %s", d)
		}
		t.Fatalf("%s: recordings differ", what)
	}
}

// TestTimeseriesBitDeterministic pins the determinism contract:
// for a fixed seed, simulated-time series are bit-identical across
// reruns and across worker counts. Samples fire on nma.Sim's serial
// window-stepping path after each batch's parallel phase has fully
// landed its counter bumps, and the default catalogue excludes
// wall-clock instruments, so the recorded bytes must not depend on
// scheduling.
func TestTimeseriesBitDeterministic(t *testing.T) {
	first := recordTimeseries(t, 1)
	requireSameRecording(t, "rerun at workers=1", first, recordTimeseries(t, 1))
	requireSameRecording(t, "workers=1 against workers=4", first, recordTimeseries(t, 4))
}

// TestTimeseriesFastForwardInvariant extends the determinism contract
// across the NMA engine's idle fast-forward: the same workload
// recorded with every refresh window stepped must produce the same
// recording as the fast-forwarded default (DESIGN §6b). CI proves the
// same property on the full emulator via `telemetryck -diff`.
func TestTimeseriesFastForwardInvariant(t *testing.T) {
	fast := recordTimeseries(t, 1)
	nma.SetFastForward(false)
	defer nma.SetFastForward(true)
	requireSameRecording(t, "fast-forwarded against stepped", fast, recordTimeseries(t, 1))
}
