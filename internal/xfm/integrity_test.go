package xfm

import (
	"bytes"
	"errors"
	"testing"

	"xfm/internal/sfm"
)

// The integrity type alone: no driver, no sim, no inner store.

// integrityOut/integrityIn run one direction's stage/settle pair over a
// batch the store accepted in full, as offloadOut/offloadIn do.
func integrityOut(in *integrity, pages []sfm.PageOut, errs []error) {
	in.stageOut(pages, errs)
	for i := range pages {
		in.settleOut(i)
	}
}

func integrityIn(in *integrity, pages []sfm.PageIn, errs []error) {
	in.stageIn(pages, errs)
	for i, p := range pages {
		errs[i] = in.settleIn(i, p.ID)
	}
}

func TestIntegrityECCToggleLeavesNoStaleParity(t *testing.T) {
	in := newIntegrity()
	a, b := compressiblePage(1), compressiblePage(2)
	dst := make([]byte, sfm.PageSize)
	errs := make([]error, 1)

	integrityOut(in, []sfm.PageOut{{ID: 7, Data: a}}, errs)
	if len(in.parity) != 1 {
		t.Fatalf("parity entries after ECC-on swap-out = %d, want 1", len(in.parity))
	}
	// Swapped in unverified while ECC is off: the entry must go with
	// the image it described.
	in.on = false
	copy(dst, a)
	integrityIn(in, []sfm.PageIn{{ID: 7, Dst: dst}}, errs)
	if errs[0] != nil || len(in.parity) != 0 {
		t.Fatalf("ECC-off swap-in: err=%v parity entries=%d, want nil/0", errs[0], len(in.parity))
	}
	// Rewritten with ECC off, read back with ECC on: nothing to verify
	// against, so nothing is (mis)counted.
	integrityOut(in, []sfm.PageOut{{ID: 7, Data: b}}, errs)
	in.on = true
	copy(dst, b)
	integrityIn(in, []sfm.PageIn{{ID: 7, Dst: dst}}, errs)
	if errs[0] != nil || !bytes.Equal(dst, b) {
		t.Fatalf("swap-in after toggle: err=%v", errs[0])
	}
	if c, u := in.corrected.Value(), in.uncorrectable.Value(); c != 0 || u != 0 {
		t.Fatalf("corrected=%d uncorrectable=%d, want 0/0", c, u)
	}
	if len(in.parity) != 0 {
		t.Fatalf("parity entries=%d, want 0", len(in.parity))
	}
}

func TestIntegrityUncorrectableWords(t *testing.T) {
	orig := compressiblePage(3)
	// Two flipped bits in one 64-bit word defeat SECDED (§4.1).
	poisoned := func() []byte {
		p := append([]byte(nil), orig...)
		p[64] ^= 0x41
		return p
	}

	t.Run("no staging copy", func(t *testing.T) {
		in, errs := newIntegrity(), make([]error, 1)
		integrityOut(in, []sfm.PageOut{{ID: 9, Data: orig}}, errs)
		integrityIn(in, []sfm.PageIn{{ID: 9, Dst: poisoned()}}, errs)
		var ue *UncorrectableError
		if !errors.As(errs[0], &ue) || ue.Page != 9 || ue.BadWords != 1 {
			t.Fatalf("err = %v, want *UncorrectableError{Page: 9, BadWords: 1}", errs[0])
		}
		if in.uncorrectable.Value() != 1 || len(in.parity) != 0 {
			t.Fatalf("uncorrectable=%d parity entries=%d, want 1/0", in.uncorrectable.Value(), len(in.parity))
		}
	})
}

func TestIntegrityRecyclesParityBuffers(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("alloc counts are not meaningful under race/coverage instrumentation")
	}
	in := newIntegrity()
	pg := compressiblePage(4)
	outs := []sfm.PageOut{{ID: 1, Data: pg}}
	ins := []sfm.PageIn{{ID: 1, Dst: append([]byte(nil), pg...)}}
	errs := make([]error, 1)
	cycle := func() {
		integrityOut(in, outs, errs)
		integrityIn(in, ins, errs)
	}
	cycle() // cold: allocates the parity buffer and the scratch slots
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("warm out/in cycle: %.0f allocs, want 0", got)
	}
	if len(in.parity) != 0 || len(in.parityFree) != 1 {
		t.Fatalf("parity entries=%d free buffers=%d, want 0/1", len(in.parity), len(in.parityFree))
	}
}
