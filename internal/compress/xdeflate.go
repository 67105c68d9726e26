package compress

import (
	"encoding/binary"
	"sync"
)

// XDeflate is a from-scratch LZ77 + canonical-Huffman codec in the
// DEFLATE class. It stands in for the Deflate accelerator the paper's
// NMA implements (§7) and for zstd on the CPU path: slower than LZFast,
// higher compression ratio.
//
// Stream format (little-endian bit order within bytes, like DEFLATE):
//
//	varint originalLen
//	1 byte  block type: 0 = stored, 1 = huffman
//	stored:  raw bytes
//	huffman: uint16 maxLitSym, nibble-packed litlen code lengths
//	         uint8  maxDistSym, nibble-packed dist code lengths
//	         bit-packed symbol stream terminated by EOB (symbol 256)
//
// The litlen alphabet is DEFLATE's: 0-255 literals, 256 end-of-block,
// 257-285 length codes with extra bits. The distance alphabet is
// DEFLATE's 30 codes. Code lengths are ≤ 15 so they pack into nibbles
// only when ≤ 15 — they always are (huffMaxBits = 15).
//
// All per-call working state (LZ77 matcher, frequency tables, code
// tables, the bit-packed body) lives in pooled xdEncState/xdDecState
// values, so steady-state Compress and Decompress calls do not
// allocate beyond the caller's dst buffer.
type XDeflate struct {
	window int
	// lazy enables one-position lazy match deferral (DEFLATE's
	// classic heuristic); on by default.
	lazy bool
}

const (
	xdLitLenSyms = 286
	xdDistSyms   = 30
	xdEOB        = 256
)

// xdEncState is the pooled per-call state of the encoder hot path.
type xdEncState struct {
	lz       lz77Encoder
	hs       huffScratch
	litLens  [xdLitLenSyms]uint8
	distLens [xdDistSyms]uint8
	litTab   [xdLitLenSyms]uint32 // code<<4 | length
	distTab  [xdDistSyms]uint32
	nibs     []uint8
	body     []byte
}

var xdEncPool = sync.Pool{New: func() any { return new(xdEncState) }}

// xdDecState is the pooled per-call state of the decoder hot path.
type xdDecState struct {
	litLens  [xdLitLenSyms]uint8
	distLens [xdDistSyms]uint8
	litDec   huffDecoder
	distDec  huffDecoder
}

var xdDecPool = sync.Pool{New: func() any { return new(xdDecState) }}

// NewXDeflate returns the default codec with a 32 KiB window and lazy
// matching.
func NewXDeflate() *XDeflate { return &XDeflate{window: 32768, lazy: true} }

// NewXDeflateGreedy returns a codec with lazy matching disabled — the
// faster, lower-ratio parse, used by the greedy-vs-lazy comparison.
//
//xfm:ignore unreachable the greedy parse TestLazyMatchingImprovesRatio and TestGreedyLazyBothRoundTripRandomized compare the lazy one against
func NewXDeflateGreedy() *XDeflate { return &XDeflate{window: 32768} }

// NewXDeflateWindow returns a codec whose match window is limited to
// the given size in bytes; used by the Fig. 8 multi-channel study.
func NewXDeflateWindow(window int) *XDeflate {
	if window < 1 {
		window = 1
	}
	if window > 32768 {
		window = 32768
	}
	return &XDeflate{window: window, lazy: true}
}

// Name implements Codec.
func (x *XDeflate) Name() string {
	if x.window == 32768 {
		if !x.lazy {
			return "xdeflate-greedy"
		}
		return "xdeflate"
	}
	return "xdeflate-w" + itoa(x.window)
}

// Info implements Codec. Calibrated to the paper's CCPerGB average
// (7.65e9 cycles/GB ≈ 7.65 cycles per byte averaged over compress and
// decompress across the zstd/lzo mix).
func (x *XDeflate) Info() CodecInfo {
	return CodecInfo{
		CompressCyclesPerByte:   12.0,
		DecompressCyclesPerByte: 4.0,
		TypicalRatio:            3.0,
	}
}

// MaxCompressedLen implements Codec.
func (x *XDeflate) MaxCompressedLen(n int) int {
	// varint + block type + stored fallback.
	return n + 16
}

// Compress implements Codec.
//
//xfm:hotpath
func (x *XDeflate) Compress(dst, src []byte) []byte {
	dst = appendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return append(dst, 0) // empty stored block
	}
	st := xdEncPool.Get().(*xdEncState)
	if body := x.encodeHuffman(st, src); body != nil {
		dst = append(dst, 1)
		dst = append(dst, body...)
	} else {
		dst = append(dst, 0) // stored
		dst = append(dst, src...)
	}
	xdEncPool.Put(st)
	return dst
}

// encodeHuffman builds the huffman block into st.body and returns it;
// the result is valid until st is reused. It returns nil when the block
// would not be smaller than src, which is known from the code lengths
// and symbol counts before a single bit is emitted.
func (x *XDeflate) encodeHuffman(st *xdEncState, src []byte) []byte {
	tokens := st.lz.parse(src, x.window, x.lazy)
	litFreq := st.lz.litFreq[:]
	distFreq := st.lz.distFreq[:]
	litFreq[xdEOB]++
	litLens := st.litLens[:]
	distLens := st.distLens[:]
	huffBuildLengthsInto(litLens, litFreq, &st.hs)
	huffBuildLengthsInto(distLens, distFreq, &st.hs)

	// Header: trimmed, nibble-packed code length tables. The body
	// buffer is reserved once for the largest block worth emitting
	// (shorter than src) plus the bit writer's 8-byte store.
	maxLit := maxUsedSym(litLens)
	maxDist := maxUsedSym(distLens)
	if cap(st.body) < len(src)+8 {
		st.body = make([]byte, 0, len(src)+8)
	}
	out := st.body[:0]
	out = append(out, byte(maxLit), byte(maxLit>>8))
	out = st.packNibbles(out, litLens[:maxLit+1])
	out = append(out, byte(maxDist))
	if maxDist >= 0 {
		out = st.packNibbles(out, distLens[:maxDist+1])
	}

	nbits := 0
	for sym, f := range litFreq {
		nbits += f * int(litLens[sym])
	}
	for lc, extra := range lengthExtra {
		nbits += litFreq[257+lc] * int(extra)
	}
	for dc, f := range distFreq {
		nbits += f * int(uint(distLens[dc])+distExtra[dc])
	}
	if len(out)+(nbits+7)/8 >= len(src) {
		return nil
	}

	litTab := st.litTab[:]
	distTab := st.distTab[:]
	huffCanonicalTableInto(litTab, litLens)
	huffCanonicalTableInto(distTab, distLens)
	w := bitWriter{buf: out}
	for _, t := range tokens {
		if t.length == 0 {
			e := litTab[t.lit]
			w.writeBits(e>>4, uint(e&15))
			continue
		}
		// A code and its extra bits go out as one field: the code in
		// the low bits, the extra bits above it.
		lc := lengthCode(int(t.length))
		e := litTab[257+lc]
		n := uint(e & 15)
		w.writeBits(e>>4|uint32(int(t.length)-lengthBase[lc])<<n, n+lengthExtra[lc])
		dc := distCode(int(t.dist))
		e = distTab[dc]
		n = uint(e & 15)
		w.writeBits(e>>4|uint32(int(t.dist)-distBase[dc])<<n, n+distExtra[dc])
	}
	e := litTab[xdEOB]
	w.writeBits(e>>4, uint(e&15))
	st.body = w.flush()
	return st.body
}

// Decompress implements Codec.
//
//xfm:hotpath
func (x *XDeflate) Decompress(dst, src []byte) ([]byte, error) {
	origLen, n, ok := readUvarint(src)
	if !ok {
		return dst, ErrCorrupt
	}
	src = src[n:]
	if len(src) == 0 {
		return dst, ErrCorrupt
	}
	blockType := src[0]
	src = src[1:]
	base := len(dst)
	want := base + int(origLen)
	switch blockType {
	case 0: // stored
		if len(src) != int(origLen) {
			return dst, ErrCorrupt
		}
		return append(dst, src...), nil
	case 1:
		// Expansion sanity bound: a valid huffman block cannot decode
		// to more than ~1032 bytes per compressed byte (≥ 2 bits per
		// ≤ 258-byte match), so a longer claim is corrupt. Checking up
		// front lets decodeHuffman reserve the whole output once.
		if int(origLen) < 0 || origLen > uint64(len(src))*1040+64 {
			return dst, ErrCorrupt
		}
		st := xdDecPool.Get().(*xdDecState)
		dst, err := x.decodeHuffman(st, dst, src, want, base)
		xdDecPool.Put(st)
		return dst, err
	default:
		return dst, ErrCorrupt
	}
}

func (x *XDeflate) decodeHuffman(st *xdDecState, dst, src []byte, want, base int) ([]byte, error) {
	if len(src) < 2 {
		return dst, ErrCorrupt
	}
	maxLit := int(src[0]) | int(src[1])<<8
	src = src[2:]
	if maxLit < xdEOB || maxLit >= xdLitLenSyms {
		return dst, ErrCorrupt
	}
	litLens := st.litLens[:]
	for i := range litLens {
		litLens[i] = 0
	}
	var ok bool
	src, ok = unpackNibbles(src, litLens[:maxLit+1])
	if !ok || len(src) < 1 {
		return dst, ErrCorrupt
	}
	maxDist := int(int8(src[0]))
	src = src[1:]
	distLens := st.distLens[:]
	for i := range distLens {
		distLens[i] = 0
	}
	if maxDist >= 0 {
		if maxDist >= xdDistSyms {
			return dst, ErrCorrupt
		}
		src, ok = unpackNibbles(src, distLens[:maxDist+1])
		if !ok {
			return dst, ErrCorrupt
		}
	}
	st.litDec.init(litLens)
	st.distDec.init(distLens)
	litDec, distDec := &st.litDec, &st.distDec
	r := bitReader{src: src}
	// Reserve the whole output once (bounded by the caller's expansion
	// check), then write by index: literals are single stores and match
	// copies run 8 bytes per iteration, with no per-byte append bounds
	// checks. The reservation is exact-size — callers decompress in
	// place into page-sized buffers (CPUBackend passes dst[:0] with cap
	// PageSize), so the output must not outgrow want; the word-wise
	// copies below are bounded to never overshoot it.
	out := Grow(dst, want-base)
	o := base
	for {
		// The fast loop takes every token it can and stops, with the
		// reader in front of the token, at the first one it cannot;
		// the careful code below decodes that one token (or rejects
		// the stream) and hands back.
		o = st.decodeFast(&r, out, o, base)
		sym := litDec.decode(&r)
		if sym < 0 {
			return dst, ErrCorrupt
		}
		if sym == xdEOB {
			break
		}
		if sym < 256 {
			if o >= want {
				return dst, ErrCorrupt
			}
			out[o] = byte(sym)
			o++
			continue
		}
		lc := sym - 257
		if lc >= len(lengthBase) {
			return dst, ErrCorrupt
		}
		length := lengthBase[lc] + int(r.readBits(lengthExtra[lc]))
		dc := distDec.decode(&r)
		if dc < 0 || dc >= len(distBase) {
			return dst, ErrCorrupt
		}
		dist := distBase[dc] + int(r.readBits(distExtra[dc]))
		if r.bad {
			return dst, ErrCorrupt
		}
		start := o - dist
		if start < base || o+length > want {
			return dst, ErrCorrupt
		}
		if dist >= 8 {
			// Non-self-overlapping at word granularity: an exact word
			// loop plus a byte tail, since this close to want the
			// wildcopy's overshoot may not fit.
			k := 0
			for ; k+8 <= length; k += 8 {
				binary.LittleEndian.PutUint64(out[o+k:], binary.LittleEndian.Uint64(out[start+k:]))
			}
			for ; k < length; k++ {
				out[o+k] = out[start+k]
			}
		} else {
			overlapCopy(out[:o+length], o, dist)
		}
		o += length
	}
	if o != want {
		return dst, ErrCorrupt
	}
	return out[:want], nil
}

// xdFastOutSlack is the output room one fast-loop iteration may use: a
// literal, then a maximal match whose 8-byte wildcopy overshoots by up
// to 7 bytes.
const xdFastOutSlack = 1 + lz77MaxMatch + 7

// decodeFast decodes tokens into out[o:] for as long as every step is
// the common case, and returns the new o with r positioned in front of
// the first token it did not take. One 64-bit refill (≥ 56 bits) covers
// a literal plus a whole second token: with both codes resolved by the
// 9-bit tables a match is at most 9+5+9+13 = 36 bits. It stops, without
// consuming the token, on a code the first-level table does not resolve
// (longer than huffTableBits, or the empty table of an over-subscribed
// length set), on end-of-block, on anything invalid, when fewer than 8
// input bytes remain to refill from, and within xdFastOutSlack bytes of
// the end of out — so every accept/reject decision stays with the
// caller's careful path.
func (st *xdDecState) decodeFast(r *bitReader, out []byte, o, base int) int {
	src := r.src
	acc, nacc, pos := r.acc, r.nacc, r.pos
	litTable, distTable := &st.litDec.table, &st.distDec.table
	const tableMask = 1<<huffTableBits - 1
	limit := len(out) - xdFastOutSlack
	for o <= limit && pos+8 <= len(src) {
		acc |= binary.LittleEndian.Uint64(src[pos:]) << nacc
		pos += int((63 - nacc) >> 3)
		nacc |= 56
		e := litTable[acc&tableMask]
		if e>>4 < 256 {
			if e == 0 {
				break
			}
			acc >>= e & 15
			nacc -= uint(e & 15)
			out[o] = byte(e >> 4)
			o++
			// The refill still holds a whole token.
			e = litTable[acc&tableMask]
			if e>>4 < 256 {
				if e == 0 {
					break
				}
				acc >>= e & 15
				nacc -= uint(e & 15)
				out[o] = byte(e >> 4)
				o++
				continue
			}
		}
		// A length code or end-of-block. Decode the match on copies of
		// the accumulator and commit them only once it is known good.
		lc := int(e>>4) - 257
		if lc < 0 || lc >= len(lengthBase) {
			break
		}
		a, n := acc>>(e&15), nacc-uint(e&15)
		length := lengthBase[lc] + int(a&(1<<lengthExtra[lc]-1))
		a >>= lengthExtra[lc]
		n -= lengthExtra[lc]
		de := distTable[a&tableMask]
		dc := int(de >> 4)
		if de == 0 || dc >= len(distBase) {
			break
		}
		a >>= de & 15
		n -= uint(de & 15)
		dist := distBase[dc] + int(a&(1<<distExtra[dc]-1))
		a >>= distExtra[dc]
		n -= distExtra[dc]
		start := o - dist
		if start < base {
			break
		}
		acc, nacc = a, n
		if dist >= 8 {
			// Non-self-overlapping at word granularity; the overshoot
			// of up to 7 bytes is inside xdFastOutSlack.
			for k := 0; k < length; k += 8 {
				binary.LittleEndian.PutUint64(out[o+k:], binary.LittleEndian.Uint64(out[start+k:]))
			}
		} else {
			overlapCopy(out[:o+length], o, dist)
		}
		o += length
	}
	r.acc, r.nacc, r.pos = acc, nacc, pos
	return o
}

// overlapCopy fills out[o:] from the dist (< 8) bytes before o,
// repeated: an overlapping match (RLE via offset < length). It writes
// one period byte-wise, then doubles the copied region with
// memmove-backed copies — O(log length) passes.
func overlapCopy(out []byte, o, dist int) {
	start := o - dist
	n := o
	for k := 0; k < dist && n < len(out); k++ {
		out[n] = out[start+k]
		n++
	}
	for n < len(out) {
		n += copy(out[n:], out[start:n])
	}
}

func maxUsedSym(lens []uint8) int {
	for i := len(lens) - 1; i >= 0; i-- {
		if lens[i] != 0 {
			return i
		}
	}
	return -1
}

// packNibbles appends lens (each ≤ 15) as a nibble stream with
// zero-run-length encoding: a nonzero nibble is a literal code length;
// a zero nibble is followed by one nibble encoding a run of 1–16
// zeros. Unused-literal gaps dominate the table, so this keeps the
// per-block header small enough for the 1 KiB per-DIMM segments of
// multi-channel mode (Fig. 8). The nibble staging buffer is reused
// from the encode state.
func (st *xdEncState) packNibbles(dst []byte, lens []uint8) []byte {
	nibs := st.nibs[:0]
	for i := 0; i < len(lens); {
		if lens[i] != 0 {
			nibs = append(nibs, lens[i]&0x0f)
			i++
			continue
		}
		run := 0
		for i < len(lens) && lens[i] == 0 && run < 16 {
			run++
			i++
		}
		nibs = append(nibs, 0, uint8(run-1))
	}
	st.nibs = nibs
	for i := 0; i < len(nibs); i += 2 {
		b := nibs[i]
		if i+1 < len(nibs) {
			b |= nibs[i+1] << 4
		}
		dst = append(dst, b)
	}
	return dst
}

// unpackNibbles fills out from src and returns the remaining source.
//
//xfm:allocok read closure does not escape and writes into caller scratch; zero allocs/op pinned by the compression benchmarks
func unpackNibbles(src []byte, out []uint8) ([]byte, bool) {
	pos := 0 // nibble index into src
	read := func() (uint8, bool) {
		if pos/2 >= len(src) {
			return 0, false
		}
		b := src[pos/2]
		var n uint8
		if pos%2 == 0 {
			n = b & 0x0f
		} else {
			n = b >> 4
		}
		pos++
		return n, true
	}
	for i := 0; i < len(out); {
		n, ok := read()
		if !ok {
			return src, false
		}
		if n != 0 {
			out[i] = n
			i++
			continue
		}
		r, ok := read()
		if !ok {
			return src, false
		}
		run := int(r) + 1
		if i+run > len(out) {
			return src, false
		}
		for k := 0; k < run; k++ {
			out[i+k] = 0
		}
		i += run
	}
	// Consume padding up to a byte boundary.
	used := (pos + 1) / 2
	return src[used:], true
}
