package xfm

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

// TestNoStaleParityAfterECCToggle: a page swapped in (or rewritten)
// while ECC is off must not leave its old parity behind, or the next
// ECC-on swap-in verifies the new bytes against the old page's parity
// and reports 512 uncorrectable words.
func TestNoStaleParityAfterECCToggle(t *testing.T) {
	a, bPage := compressiblePage(1), compressiblePage(2)
	dst := make([]byte, sfm.PageSize)
	check := func(t *testing.T, b *Backend, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("swap-in after ECC toggle: %v", err)
		}
		if !bytes.Equal(dst, bPage) {
			t.Fatal("content corrupted")
		}
		if _, corrected, bad := b.ECCStats(); corrected != 0 || bad != 0 {
			t.Fatalf("corrected=%d bad=%d, want 0/0", corrected, bad)
		}
		if len(b.integ.parity) != 0 {
			t.Fatalf("parity entries=%d, want 0", len(b.integ.parity))
		}
	}
	t.Run("single", func(t *testing.T) {
		b := newTestBackend(t)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(b.SwapOut(0, 7, a))
		b.SetECC(false)
		must(b.SwapIn(0, 7, dst, false))
		must(b.SwapOut(0, 7, bPage))
		b.SetECC(true)
		check(t, b, b.SwapIn(0, 7, dst, false))
	})
	t.Run("batch", func(t *testing.T) {
		b := newTestBackend(t)
		must := func(errs []error) {
			t.Helper()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
		}
		in := []sfm.PageIn{{ID: 7, Dst: dst}}
		must(b.SwapOutBatch(0, []sfm.PageOut{{ID: 7, Data: a}}))
		b.SetECC(false)
		must(b.SwapInBatch(0, in, false))
		must(b.SwapOutBatch(0, []sfm.PageOut{{ID: 7, Data: bPage}}))
		b.SetECC(true)
		check(t, b, errors.Join(b.SwapInBatch(0, in, false)...))
	})
}

// TestECCAddsNoAllocations pins the parity path's buffer recycling: a
// warm swap cycle with ECC on allocates no more than the same cycle
// with ECC off — and no more than two allocations either way (a batch
// cycle's two result slices), which makes it the allocation gate of
// SwapOut, SwapIn, submitOrFallback and submitOnce.
func TestECCAddsNoAllocations(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("alloc counts are not meaningful under race/coverage instrumentation")
	}
	mk := func(eccOn bool) *Backend {
		sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
		b, err := NewShardedBackend(compress.NewLZFast(), 1<<30, 4, 0,
			NewDriver(sim), memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		b.SetECC(eccOn)
		return b
	}
	const n = 256
	outs := make([]sfm.PageOut, n)
	ins := make([]sfm.PageIn, n)
	for i := range outs {
		id := sfm.PageID(i)
		outs[i] = sfm.PageOut{ID: id, Data: compressiblePage(id)}
		ins[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
	}
	single := func(b *Backend) func() {
		return func() {
			if err := b.SwapOut(0, outs[0].ID, outs[0].Data); err != nil {
				t.Fatal(err)
			}
			if err := b.SwapIn(0, ins[0].ID, ins[0].Dst, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch := func(b *Backend) func() {
		return func() {
			if err := errors.Join(b.SwapOutBatch(0, outs)...); err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(b.SwapInBatch(0, ins, true)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		cycle func(*Backend) func()
	}{{"single", single}, {"batch256", batch}} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(eccOn bool) float64 {
				cycle := tc.cycle(mk(eccOn))
				// Warm pools, arenas and free lists. The slowest to
				// fill is the NMA simulator's op free list: through
				// its eighth batch cycle a new backend still allocates
				// two ops per page, ECC on or off.
				for i := 0; i < 12; i++ {
					cycle()
				}
				// A GC inside a sample empties the sync.Pools (codec
				// state, staging scratch) and their refills count
				// against that sample; the minimum of five samples is
				// the steady state.
				allocs := math.Inf(1)
				for sample := 0; sample < 5; sample++ {
					allocs = min(allocs, testing.AllocsPerRun(10, cycle))
				}
				return allocs
			}
			on, off := measure(true), measure(false)
			if on > off {
				t.Fatalf("ECC on: %.0f allocs/cycle, ECC off: %.0f", on, off)
			}
			if on > 2 {
				t.Fatalf("ECC on: %.0f allocs/cycle, want <= 2", on)
			}
			t.Logf("allocs/cycle: ECC on %.0f, off %.0f", on, off)
		})
	}
}
