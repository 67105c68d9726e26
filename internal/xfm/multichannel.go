package xfm

import (
	"fmt"

	"xfm/internal/compress"
)

// Multi-channel mode (§6, Fig. 9): on a server with channel
// interleaving, a logically contiguous 4 KiB page is physically
// scattered across DIMMs at the channel interleave granularity
// (256 B). Each XFM DIMM compresses only the chunks it holds — the
// "out of order compressed data layout" of Fig. 8 — and the
// compressed pieces are placed at the *same offset* in every DIMM's
// SFM region, trading internal fragmentation for a design where the
// host can address all pieces with a single offset.

// MultiChannelLayout describes an XFM multi-channel configuration.
type MultiChannelLayout struct {
	// DIMMs is the number of XFM memory modules the page is spread
	// over (Fig. 8 evaluates 1, 2, and 4).
	DIMMs int
	// InterleaveBytes is the channel interleave granularity (256 B on
	// Skylake).
	InterleaveBytes int
}

// DefaultLayout returns the paper's reference layout for n DIMMs:
// 256 B interleaving.
func DefaultLayout(n int) MultiChannelLayout {
	return MultiChannelLayout{DIMMs: n, InterleaveBytes: 256}
}

// Validate checks the layout.
func (l MultiChannelLayout) Validate() error {
	if l.DIMMs < 1 {
		return fmt.Errorf("xfm: layout needs at least 1 DIMM, got %d", l.DIMMs)
	}
	if l.InterleaveBytes < 1 {
		return fmt.Errorf("xfm: non-positive interleave %d", l.InterleaveBytes)
	}
	return nil
}

// WindowBytes returns the per-DIMM compression window for a page of
// pageBytes: the share of the page a single DIMM sees (4 KiB → 2 KiB
// → 1 KiB for 1/2/4 DIMMs, §6).
func (l MultiChannelLayout) WindowBytes(pageBytes int) int {
	return pageBytes / l.DIMMs
}

// SplitInto is Split appending into caller-provided part buffers (one
// per DIMM, each typically length 0 with retained capacity — e.g. from
// compress.Scratch.Parts). The hot path uses it to stage the
// interleave split without allocating.
func (l MultiChannelLayout) SplitInto(parts [][]byte, page []byte) [][]byte {
	if len(parts) != l.DIMMs {
		panic(fmt.Sprintf("xfm: SplitInto got %d parts, layout has %d DIMMs", len(parts), l.DIMMs))
	}
	for off, i := 0, 0; off < len(page); off, i = off+l.InterleaveBytes, i+1 {
		end := off + l.InterleaveBytes
		if end > len(page) {
			end = len(page)
		}
		d := i % l.DIMMs
		parts[d] = append(parts[d], page[off:end]...)
	}
	return parts
}

// CompressedLayout is the result of compressing one page in
// multi-channel mode.
type CompressedLayout struct {
	// Parts holds each DIMM's compressed buffer.
	Parts [][]byte
	// SlotBytes is the per-DIMM space reserved: because all pieces
	// are placed at the same offset in every DIMM's region (§6), each
	// DIMM reserves the size of the *largest* piece.
	SlotBytes int
}

// TotalReserved returns the space consumed including same-offset
// internal fragmentation: DIMMs × SlotBytes.
func (c CompressedLayout) TotalReserved() int {
	return len(c.Parts) * c.SlotBytes
}

// CompressPage compresses a page in multi-channel mode with the given
// codec constructor, which receives the per-DIMM window size (the
// codec's match window shrinks with the page share each DIMM sees).
// The interleave split is staged in pooled scratch; only the returned
// compressed parts are allocated (they are stored durably).
func (l MultiChannelLayout) CompressPage(page []byte, newCodec func(window int) compress.Codec) CompressedLayout {
	s := compress.GetScratch()
	defer s.Release()
	parts := l.SplitInto(s.Parts(l.DIMMs), page)
	window := l.WindowBytes(len(page))
	if window < 1 {
		window = 1
	}
	codec := newCodec(window)
	out := CompressedLayout{Parts: make([][]byte, len(parts))}
	for i, p := range parts {
		out.Parts[i] = codec.Compress(nil, p)
		if len(out.Parts[i]) > out.SlotBytes {
			out.SlotBytes = len(out.Parts[i])
		}
	}
	return out
}
