package experiments

import (
	"reflect"
	"testing"
)

// TestFig8Deterministic: Fig. 8 is a pure function of its
// inputs, so two calls must agree field for field and render the same
// table.
func TestFig8Deterministic(t *testing.T) {
	a, b := Fig8(true), Fig8(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Fig8 result differs between two calls")
	}
	if sa, sb := a.Table().String(), b.Table().String(); sa != sb {
		t.Fatalf("Fig8 table differs between two calls:\n--- first ---\n%s\n--- second ---\n%s", sa, sb)
	}
}

// TestMixSweepDeterministic: the sweep used to iterate a map; it must
// now produce the same ordered slice on every call.
func TestMixSweepDeterministic(t *testing.T) {
	a, b := MixSweep(), MixSweep()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("MixSweep is not deterministic across calls")
	}
	lo, hi := GainBand(a)
	if lo >= hi {
		t.Fatalf("degenerate gain band [%f, %f]", lo, hi)
	}
}
