package compress

import "sync"

// Scratch is a reusable buffer arena for the (de)compression hot path.
// The per-page `make` sites in the swap pipeline (backend compress
// staging, zsmalloc fetch staging, multi-channel interleave splitting)
// all draw from a Scratch instead of allocating, so a steady-state
// swap batch runs allocation-free.
//
// Ownership rules (documented for every holder in DESIGN.md):
//
//   - A Scratch is single-owner: exactly one goroutine may use it at a
//     time. Worker pools take one Scratch per worker (GetScratch /
//     Release), long-lived single-threaded owners (CPUBackend) embed
//     one.
//   - Buffers handed out by a Scratch (Comp, Raw, Page, Parts) are
//     valid only until the next use of the same field or Release; a
//     caller that needs bytes beyond that must copy them out. Nothing
//     stored durably (zsmalloc slots, multi-channel slot parts) may
//     alias scratch memory.
type Scratch struct {
	// Comp stages compressed output (the Compress dst buffer).
	Comp []byte
	// Raw stages compressed bytes fetched back from a store before
	// decompression.
	Raw []byte
	// Page stages a decompressed page.
	Page []byte

	parts [][]byte
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the shared pool. Callers must
// Release it when done; the buffers keep their grown capacity across
// reuses, which is what makes the steady state allocation-free.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the Scratch (and its buffers) to the pool. The
// caller must not touch the Scratch or any buffer obtained from it
// afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// Compress runs c.Compress over src into the reusable Comp buffer and
// returns it. The result is invalidated by the next Compress call on
// the same Scratch.
func (s *Scratch) Compress(c Codec, src []byte) []byte {
	s.Comp = c.Compress(s.Comp[:0], src)
	return s.Comp
}

// Decompress runs c.Decompress over src into the reusable Page buffer
// and returns it. The result is invalidated by the next Decompress
// call on the same Scratch.
func (s *Scratch) Decompress(c Codec, src []byte) ([]byte, error) {
	out, err := c.Decompress(s.Page[:0], src)
	s.Page = out[:0]
	return out, err
}

// Parts returns n reusable byte slices, each reset to length zero but
// keeping its capacity. Callers append into parts[i] (and store the
// grown slice back into parts[i]) exactly as they would with freshly
// made buffers; the backing headers live in the Scratch so capacity
// survives to the next call.
func (s *Scratch) Parts(n int) [][]byte {
	if cap(s.parts) < n {
		grown := make([][]byte, n)
		copy(grown, s.parts[:cap(s.parts)])
		s.parts = grown
	}
	s.parts = s.parts[:n]
	for i := range s.parts {
		s.parts[i] = s.parts[i][:0]
	}
	return s.parts
}

// Grow extends buf by n bytes (contents unspecified) without an
// allocation when capacity suffices, returning the extended slice.
// It is the append-friendly replacement for `make([]byte, n)` staging
// buffers.
func Grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf[:len(buf)+n]
	}
	grown := make([]byte, len(buf)+n)
	copy(grown, buf)
	return grown
}
