package xfm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

func chaosBackend(t *testing.T, spec string, seed int64) (*Backend, *fault.Injector) {
	t.Helper()
	b := newTestBackend(t)
	plan, err := fault.ParseSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan)
	b.SetInjector(inj)
	return b, inj
}

func TestUncorrectableTypedError(t *testing.T) {
	// Multi-bit flips on every page: swap-in must fail with the typed,
	// errors.Is-able error.
	b, _ := chaosBackend(t, "ecc-multi=1", 3)
	if err := b.SwapOut(0, 9, page('Z')); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, sfm.PageSize)
	err := b.SwapIn(dram.Millisecond, 9, dst, false)
	if err == nil {
		t.Fatal("uncorrectable flip survived verification")
	}
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("errors.Is(ErrUncorrectable) false for %v", err)
	}
	var ue *UncorrectableError
	if !errors.As(err, &ue) {
		t.Fatalf("errors.As(*UncorrectableError) false for %v", err)
	}
	if ue.Page != 9 || ue.BadWords < 1 {
		t.Fatalf("typed error carries page=%d bad=%d", ue.Page, ue.BadWords)
	}
}

func TestECCSingleBitFlipsAreCorrected(t *testing.T) {
	b, _ := chaosBackend(t, "ecc-single=1", 5)
	orig := page('S')
	if err := b.SwapOut(0, 21, orig); err != nil {
		t.Fatal(err)
	}
	_, correctedBefore, _ := b.ECCStats()
	dst := make([]byte, sfm.PageSize)
	if err := b.SwapIn(dram.Millisecond, 21, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, orig) {
		t.Fatal("single-bit flip not corrected in place")
	}
	_, corrected, bad := b.ECCStats()
	if corrected <= correctedBefore || bad != 0 {
		t.Fatalf("corrected=%d bad=%d, want corrected>0 bad=0", corrected, bad)
	}
}

func TestBatchQuarantineMatchesSerial(t *testing.T) {
	// The batched swap-in path must fail exactly the pages the serial
	// path fails, with the same typed error, and restore every other
	// page intact.
	const n = 64
	origs := make([][]byte, n)
	outs := make([]sfm.PageOut, n)
	for i := range outs {
		origs[i] = page(byte(i * 7))
		origs[i][i%sfm.PageSize] = 0xEE
		outs[i] = sfm.PageOut{ID: sfm.PageID(i), Data: origs[i]}
	}
	swapIn := func(batch bool) ([]sfm.PageIn, []error) {
		sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
		m := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
		b, err := NewShardedBackend(compress.NewLZFast(), 1<<30, 4, 2, NewDriver(sim), m)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		plan, err := fault.ParseSpec("ecc-multi=0.5", 11)
		if err != nil {
			t.Fatal(err)
		}
		b.SetInjector(fault.NewInjector(plan))
		for i, err := range b.SwapOutBatch(dram.Millisecond, outs) {
			if err != nil {
				t.Fatalf("page %d: %v", i, err)
			}
		}
		ins, errs := make([]sfm.PageIn, n), make([]error, n)
		for i := range ins {
			ins[i] = sfm.PageIn{ID: sfm.PageID(i), Dst: make([]byte, sfm.PageSize)}
		}
		if batch {
			copy(errs, b.SwapInBatch(2*dram.Millisecond, ins, true))
		} else {
			for i, p := range ins {
				errs[i] = b.SwapIn(2*dram.Millisecond, p.ID, p.Dst, true)
			}
		}
		return ins, errs
	}
	serialIns, serialErrs := swapIn(false)
	batchIns, batchErrs := swapIn(true)
	failed := 0
	for i := range batchErrs {
		if !reflect.DeepEqual(batchErrs[i], serialErrs[i]) {
			t.Fatalf("page %d: batch err %v, serial err %v", i, batchErrs[i], serialErrs[i])
		}
		var ue *UncorrectableError
		switch {
		case errors.As(batchErrs[i], &ue):
			if ue.Page != sfm.PageID(i) {
				t.Fatalf("page %d failed as page %d", i, ue.Page)
			}
			failed++
		case batchErrs[i] != nil:
			t.Fatalf("page %d: %v", i, batchErrs[i])
		case !bytes.Equal(batchIns[i].Dst, origs[i]) || !bytes.Equal(serialIns[i].Dst, origs[i]):
			t.Fatalf("page %d restored with wrong bytes", i)
		}
	}
	if failed == 0 || failed == n {
		t.Fatalf("p=0.5 multi-bit flips failed %d of %d pages", failed, n)
	}
}

func TestDriverQueueFullInjection(t *testing.T) {
	b, inj := chaosBackend(t, "queue-full=1", 1)
	trefi := b.Driver().Sim().Config().Timings.TREFI
	now := dram.Ps(0)
	for i := 0; i < 20; i++ {
		now += trefi
		if err := b.SwapOut(now, sfm.PageID(i), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Injected(fault.SiteQueueFull); got != 20 {
		t.Fatalf("queue-full injections = %d, want 20", got)
	}
	if s := b.Stats(); s.Fallbacks != 20 || s.Offloads != 0 {
		t.Fatalf("fallbacks=%d offloads=%d, want 20/0 (one fallback per rejection)", s.Fallbacks, s.Offloads)
	}
}
