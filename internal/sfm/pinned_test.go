package sfm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"xfm/internal/compress"
)

// storePage builds one page of seeded content whose compressed size
// spreads over most zsmalloc size classes: same-filled pages (one in
// ten), incompressible ones (one in ten), and pages that mix repeated
// runs with literal runs at a random literal share.
func storePage(rng *rand.Rand) []byte {
	p := make([]byte, PageSize)
	switch k := rng.Intn(10); {
	case k == 0:
		w := rng.Uint64() >> uint(rng.Intn(2)*64) // zero pages half the time
		for off := 0; off < PageSize; off += 8 {
			binary.LittleEndian.PutUint64(p[off:], w)
		}
	case k == 1:
		rng.Read(p)
	default:
		literal := rng.Intn(70)
		for off := 0; off < PageSize; {
			n := min(4+rng.Intn(60), PageSize-off)
			if rng.Intn(100) < literal {
				rng.Read(p[off : off+n])
			} else {
				tok := byte('a' + rng.Intn(6))
				for i := range n {
					p[off+i] = tok
				}
			}
			off += n
		}
	}
	return p
}

// storeDigest drives b through one seeded sequence of single and batch
// swap-outs (fresh ids and live ones), demand swap-ins (stored ids and
// unknown ones), Contains and Compact, and returns the first 16 hex
// digits of a SHA-256 over every error, every swapped-in byte and
// Stats() after each step. It also checks every swapped-in page
// against what was stored and returns how often each error fired, so
// the caller can check the sequence reaches the paths it claims to.
func storeDigest(t *testing.T, b Backend, seed int64, steps, ids int) (string, map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	stored := map[PageID][]byte{}
	seen := map[string]int{}
	note := func(err error) {
		seen[fmt.Sprint(err)]++
		fmt.Fprintf(h, "%v;", err)
	}
	in := func(id PageID, dst []byte, err error) {
		note(err)
		if err != nil {
			return
		}
		if !bytes.Equal(dst, stored[id]) {
			t.Fatalf("page %d: swapped-in bytes differ from the stored page", id)
		}
		delete(stored, id)
		h.Write(dst)
	}
	out := func(id PageID, data []byte, err error) {
		note(err)
		if err == nil {
			stored[id] = data
		}
	}
	dst := make([]byte, PageSize)
	for step := 0; step < steps; step++ {
		fmt.Fprintf(h, "step %d:", step)
		switch op := rng.Intn(20); {
		case op < 6: // single swap-out; a live id answers ErrExists
			id := PageID(rng.Intn(ids))
			data := storePage(rng)
			out(id, data, b.SwapOut(0, id, data))
		case op < 9: // batch swap-out, duplicates and live ids included
			pages := make([]PageOut, 1+rng.Intn(24))
			for i := range pages {
				pages[i] = PageOut{ID: PageID(rng.Intn(ids)), Data: storePage(rng)}
			}
			for i, err := range b.SwapOutBatch(0, pages) {
				out(pages[i].ID, pages[i].Data, err)
			}
		case op < 15: // demand swap-in; an unknown id answers ErrNotFound
			id := PageID(rng.Intn(ids + ids/4))
			in(id, dst, b.SwapIn(0, id, dst, false))
		case op < 18: // batch swap-in
			pages := make([]PageIn, 1+rng.Intn(24))
			for i := range pages {
				pages[i] = PageIn{ID: PageID(rng.Intn(ids)), Dst: make([]byte, PageSize)}
			}
			for i, err := range b.SwapInBatch(0, pages, rng.Intn(2) == 0) {
				in(pages[i].ID, pages[i].Dst, err)
			}
		case op < 19:
			id := PageID(rng.Intn(ids))
			if got, want := b.Contains(id), stored[id] != nil; got != want {
				t.Fatalf("step %d: Contains(%d) = %v, want %v", step, id, got, want)
			}
		default:
			fmt.Fprintf(h, "compact %d;", b.Compact())
		}
		fmt.Fprintf(h, "%+v\n", b.Stats())
	}
	return hex.EncodeToString(h.Sum(nil))[:16], seen
}

// TestStorePinned is the whole-behaviour oracle of the zswap-style
// store: the page index in front of the zsmalloc region. Its digests
// were recorded on the red-black-tree index with the map-keyed
// allocator, so they pin which errors a sequence meets, every byte it
// swaps in, and every Stats field (the region's page bytes, compaction
// bytes and compact-on-full count follow zsmalloc's page and slot
// choice). A changed digest is a behaviour change, not a re-pin. The
// sharded digest must not depend on the worker count (CI runs it at
// -cpu=1,4).
func TestStorePinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mk     func() Backend
		digest string
	}{
		// 96 pages of region: full enough that swap-outs compact and
		// then fail with ErrFull.
		{"cpu", func() Backend { return NewCPUBackend(compress.NewLZFast(), 96*PageSize) }, "0423aaf8247e4369"},
		{"sharded", func() Backend { return NewShardedBackend(compress.NewLZFast(), 4*28*PageSize, 4, 0) }, "f4ebadd06e04057e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mk()
			if s, ok := b.(*ShardedBackend); ok {
				defer s.Close()
			}
			got, seen := storeDigest(t, b, 1, 1500, 256)
			st := b.Stats()
			t.Logf("digest %s, errors %v, stats %+v", got, seen, st)
			for _, err := range []error{ErrExists, ErrNotFound, ErrFull} {
				if seen[err.Error()] == 0 {
					t.Errorf("the sequence never met %v", err)
				}
			}
			if st.CompactOnFull == 0 || st.Region.Compactions <= st.CompactOnFull || st.SameFilledPages == 0 || st.IncompressiblePages == 0 {
				t.Errorf("the sequence misses a path: %+v", st)
			}
			if got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}
