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

// xdLitExtra and xdDistExtra give the number of extra bits that follow
// each symbol's code.
var (
	xdLitExtra  [xdLitLenSyms]uint8
	xdDistExtra [xdDistSyms]uint8
)

func init() {
	for lc, x := range lengthExtra {
		xdLitExtra[257+lc] = uint8(x)
	}
	for dc, x := range distExtra {
		xdDistExtra[dc] = uint8(x)
	}
}

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
	}
}

// MaxCompressedLen implements Codec.
func (x *XDeflate) MaxCompressedLen(n int) int {
	// varint + block type + stored fallback.
	return n + 16
}

// Compress implements Codec.
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
	seqs := st.lz.parse(src, x.window, x.lazy)
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
	p := 0
	for _, q := range seqs {
		lits := src[p : p+int(q.lits)]
		p += int(q.lits)
		// Two literal codes (≤ 15 bits each) go out as one field.
		for len(lits) >= 2 {
			e0, e1 := litTab[lits[0]], litTab[lits[1]]
			n0 := uint(e0 & 15)
			w.writeBits(e0>>4|e1>>4<<n0, n0+uint(e1&15))
			lits = lits[2:]
		}
		if len(lits) == 1 {
			e := litTab[lits[0]]
			w.writeBits(e>>4, uint(e&15))
		}
		if q.length == 0 {
			continue
		}
		p += int(q.length)
		// A code and its extra bits go out as one field: the code in
		// the low bits, the extra bits above it.
		e := litTab[257+int(q.lc)]
		n := uint(e & 15)
		w.writeBits(e>>4|uint32(int(q.length)-lengthBase[q.lc])<<n, n+lengthExtra[q.lc])
		e = distTab[q.dc]
		n = uint(e & 15)
		w.writeBits(e>>4|uint32(int(q.dist)-distBase[q.dc])<<n, n+distExtra[q.dc])
	}
	e := litTab[xdEOB]
	w.writeBits(e>>4, uint(e&15))
	st.body = w.flush()
	return st.body
}

// Decompress implements Codec.
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
	// Symbols past maxLit / maxDist have no code: the decoders are built
	// from the trimmed tables, so nothing needs zeroing first.
	litLens := st.litLens[:maxLit+1]
	var ok bool
	src, ok = unpackNibbles(src, litLens)
	if !ok || len(src) < 1 {
		return dst, ErrCorrupt
	}
	maxDist := int(int8(src[0]))
	src = src[1:]
	if maxDist >= xdDistSyms {
		return dst, ErrCorrupt
	}
	distLens := st.distLens[:max(maxDist+1, 0)]
	src, ok = unpackNibbles(src, distLens)
	if !ok {
		return dst, ErrCorrupt
	}
	st.litDec.init(litLens, xdLitExtra[:])
	st.distDec.init(distLens, xdDistExtra[:])
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

// decodeFast decodes tokens into out[o:] for as long as every step is
// the common case, and returns the new o with r positioned in front of
// the first token it did not take. One 64-bit refill (≥ 56 bits) covers
// a literal plus a whole second token: with both codes resolved by the
// 9-bit tables a match is at most 9+5+9+13 = 36 bits. It stops, without
// consuming the token, on a code the first-level table does not resolve
// (longer than huffTableBits, or the empty table of an over-subscribed
// length set), on end-of-block, on anything invalid, when fewer than 8
// input bytes remain to refill from, and on a token out has no room
// for — two literal stores at the top of an iteration, a match plus the
// up to 15 bytes its two-word copy steps overshoot by before the match
// is committed — so every accept/reject decision stays with the
// caller's careful path.
func (st *xdDecState) decodeFast(r *bitReader, out []byte, o, base int) int {
	src := r.src
	acc, nacc, pos := r.acc, r.nacc, r.pos
	litTable, distTable := &st.litDec.table, &st.distDec.table
	const tableMask = 1<<huffTableBits - 1
	for o+2 <= len(out) && pos+8 <= len(src) {
		acc |= binary.LittleEndian.Uint64(src[pos:]) << (nacc & 63)
		pos += int((63 - nacc) >> 3)
		nacc |= 56
		e := litTable[acc&tableMask]
		if e>>16 < 256 {
			if e == 0 {
				break
			}
			acc >>= e & 15
			nacc -= uint(e & 15)
			out[o] = byte(e >> 16)
			o++
			// The refill still holds a whole token.
			e = litTable[acc&tableMask]
			if e>>16 < 256 {
				if e == 0 {
					break
				}
				acc >>= e & 15
				nacc -= uint(e & 15)
				out[o] = byte(e >> 16)
				o++
				continue
			}
		}
		// A length code or end-of-block. Decode the match on copies of
		// the accumulator and commit them only once it is known good.
		lc := int(e>>16) - 257
		if lc < 0 || lc >= len(lengthBase) {
			break
		}
		// An entry carries its code length, the number of extra bits
		// behind the code and their sum, so nothing the accumulator
		// waits for is loaded from a second table.
		length := lengthBase[lc] + int(acc>>(e&15)&(1<<(e>>4&15)-1))
		a, n := acc>>(e>>8&63), nacc-uint(e>>8&63)
		de := distTable[a&tableMask]
		dc := int(de >> 16)
		if de == 0 || dc >= len(distBase) {
			break
		}
		dist := distBase[dc] + int(a>>(de&15)&(1<<(de>>4&15)-1))
		a >>= de >> 8 & 63
		n -= uint(de >> 8 & 63)
		start := o - dist
		if start < base || o+length+16 > len(out) {
			break
		}
		acc, nacc = a, n
		if dist >= 8 {
			// Most matches are done after one step.
			for k := 0; k < length; k += 16 {
				copy16(out[o+k:], out[start+k:])
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
func unpackNibbles(src []byte, out []uint8) ([]byte, bool) {
	pos := 0 // nibble index into src
	for i := 0; i < len(out); {
		if pos>>1 >= len(src) {
			return src, false
		}
		n := src[pos>>1] >> (4 * uint(pos&1)) & 0x0f
		pos++
		if n != 0 {
			out[i] = n
			i++
			continue
		}
		if pos>>1 >= len(src) {
			return src, false
		}
		run := int(src[pos>>1]>>(4*uint(pos&1))&0x0f) + 1
		pos++
		if i+run > len(out) {
			return src, false
		}
		clear(out[i : i+run])
		i += run
	}
	// Consume padding up to a byte boundary.
	return src[(pos+1)/2:], true
}
