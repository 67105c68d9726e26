package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"xfm/internal/corpus"
)

// The lzfast encoder's table outlives a call on purpose: nothing is
// cleared, and what an earlier call left behind is told apart by its
// salted prefix and, failing that, its stamp. These tests drive one
// lzfEncState directly, so what it compressed before is exactly what
// the test says it is (sync.Pool promises nothing of the kind), and hold
// every stream to the frozen refLZFastTwoSlot.

// lzfWindows are the windows the experiments use.
var lzfWindows = []int{lzfMaxOffset, 2048, 1024}

// TestLZFastStateCarryCorpus runs 64 pages of every generator, at every
// window, through one state — in order and then in reverse, so pages of
// one kind follow each other (the table is then full of stale slots with
// the prefixes the next page has, in the buckets it will probe) and the
// last page of each kind is compressed twice in a row.
func TestLZFastStateCarryCorpus(t *testing.T) {
	st := new(lzfEncState)
	var got, want []byte
	for _, window := range lzfWindows {
		ref := &refLZFastTwoSlot{maxOffset: window}
		for _, name := range corpus.Names() {
			pages := mixedCorpusPages(t, name)[:64]
			for k := 0; k < 2*len(pages); k++ {
				i := min(k, 2*len(pages)-1-k)
				got = st.compress(got[:0], pages[i], window)
				want = ref.Compress(want[:0], pages[i])
				if !bytes.Equal(got, want) {
					t.Errorf("%s page %d (step %d) window %d: stream diverged: new %d bytes, reference %d bytes",
						name, i, k, window, len(got), len(want))
				}
			}
		}
	}
}

// TestLZFastStateCarryFresh is the other end: a zero state, whose slots
// are all empty, at base 0, whose salt is 0. Four zero bytes then probe
// an empty bucket whose prefix field reads as theirs; only stamps that
// start above base keep it from being taken for position 0.
func TestLZFastStateCarryFresh(t *testing.T) {
	in := []byte("abcdefgh\x00\x00\x00\x00ijklmnopqrstuvwxyz")
	got := new(lzfEncState).compress(nil, in, lzfMaxOffset)
	if want := (&refLZFastTwoSlot{maxOffset: lzfMaxOffset}).Compress(nil, in); !bytes.Equal(got, want) {
		t.Fatalf("stream diverged: new %x, reference %x", got, want)
	}
}

// TestLZFastStateCarryWrap starts states just short of the end of the
// 32-bit stamp space, so the clear-and-restart happens inside the test:
// streams on both sides of it equal the reference, the last call that
// fits does not clear, and the first that does not fit does. The restart
// reuses base 0, and with it the salt, so each state has first compressed
// — at base 0 — the very page the restart will see: were the table not
// cleared, every slot of that call would read as the current one's.
func TestLZFastStateCarryWrap(t *testing.T) {
	pages := mixedCorpusPages(t, "text-english")[:6]
	ref := &refLZFastTwoSlot{maxOffset: lzfMaxOffset}
	const n = 4096
	for _, tc := range []struct {
		name    string
		base    uint32
		clearAt int // the call that must restart the stamps
	}{
		// base + n + 1 is the next base and must fit 32 bits.
		{"exact-fit", math.MaxUint32 - 3*(n+1), 3},
		{"one-short", math.MaxUint32 - 3*(n+1) + 1, 2},
		{"mid-page", math.MaxUint32 - 2*(n+1) - n/2, 2},
		{"first-call", math.MaxUint32 - n, 0},
	} {
		st := new(lzfEncState)
		st.compress(nil, pages[tc.clearAt], lzfMaxOffset)
		st.base = tc.base
		for k, p := range pages {
			before := st.base
			got := st.compress(nil, p, lzfMaxOffset)
			if want := ref.Compress(nil, p); !bytes.Equal(got, want) {
				t.Errorf("%s: call %d (base %d): stream diverged: new %d bytes, reference %d bytes",
					tc.name, k, before, len(got), len(want))
			}
			if cleared := st.base < before; cleared != (k == tc.clearAt) {
				t.Errorf("%s: call %d: base %d → %d, cleared = %v", tc.name, k, before, st.base, cleared)
			}
			if k == tc.clearAt && st.base != n+1 {
				t.Errorf("%s: base after restart = %d, want %d", tc.name, st.base, n+1)
			}
		}
	}
}

// TestLZFastStateCarrySalt pins what the salt is for. Compressing the
// same page again is the worst case for a table that is never cleared:
// every bucket the second call probes holds the first call's slot for
// the very same four bytes. None of them may pass the prefix compare —
// unsalted, every one of them would, and each would cost the slow path
// (the streams would still be right: this is the only test that fails
// without the salt).
func TestLZFastStateCarrySalt(t *testing.T) {
	for _, name := range []string{"html", "csv-table", "text-english", "random"} {
		st := new(lzfEncState)
		p := mixedCorpusPages(t, name)[0]
		for call := 0; call < 3; call++ {
			st.compress(nil, p, lzfMaxOffset)
			salt := lzfSalt(st.base) // the next call's
			for i := 0; i+8 <= len(p); i++ {
				v := binary.LittleEndian.Uint64(p[i:])
				b := st.tab[lzfHash8(v)]
				if key := uint32(v) ^ salt; uint32(b[0]) == key || uint32(b[1]) == key {
					t.Fatalf("%s: after call %d a stale slot passes the prefix compare at position %d", name, call, i)
				}
			}
		}
	}
}

// TestLZFastStateCarryStamp builds the one case in 2³² the salt does not
// cover: a slot left by the previous call, in the bucket the next call
// probes first, whose salted prefix equals that probe's. Only its stamp
// says it is stale.
func TestLZFastStateCarryStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, b := make([]byte, 4096), make([]byte, 4096)
	rng.Read(a)
	rng.Read(b)
	st := new(lzfEncState)
	baseA, baseB := st.base, st.base+uint32(len(a))+1
	// a's last probed position r and b's first are to share a bucket and
	// a salted prefix: draw a's four bytes, derive b's, and search the
	// fifth byte of each (the hash covers five, and the fifth only moves
	// its top eight bits, so most draws have no common bucket).
	r := len(a) - 8
	var prefixB uint32
	for found := false; !found; {
		rng.Read(a[r : r+4])
		prefixB = binary.LittleEndian.Uint32(a[r:]) ^ lzfSalt(baseA) ^ lzfSalt(baseB)
		binary.LittleEndian.PutUint32(b, prefixB)
		bucket := map[uint32]byte{}
		for c := 0; c < 256; c++ {
			a[r+4] = byte(c)
			bucket[lzfHash8(binary.LittleEndian.Uint64(a[r:]))] = byte(c)
		}
		for c := 0; c < 256 && !found; c++ {
			b[4] = byte(c)
			a[r+4], found = bucket[lzfHash8(binary.LittleEndian.Uint64(b))]
		}
	}
	ref := &refLZFastTwoSlot{maxOffset: lzfMaxOffset}
	if got, want := st.compress(nil, a, lzfMaxOffset), ref.Compress(nil, a); !bytes.Equal(got, want) {
		t.Fatal("first page: stream diverged")
	}
	// The trap is set: the newest slot of b's first bucket is a's, nine
	// stamps back, and passes b's prefix compare.
	slot := st.tab[lzfHash8(binary.LittleEndian.Uint64(b))][0]
	if st.base != baseB || uint32(slot) != prefixB^lzfSalt(baseB) || uint32(slot>>32) != baseA+1+uint32(r) {
		t.Fatalf("stale slot %#x is not the crafted coincidence", slot)
	}
	if got, want := st.compress(nil, b, lzfMaxOffset), ref.Compress(nil, b); !bytes.Equal(got, want) {
		t.Fatalf("second page: stream diverged: new %d bytes, reference %d bytes", len(got), len(want))
	}
}
