package compress

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// LZFast is a word-oriented LZ77 codec in the LZO/LZ4 speed class: a
// two-slot hash table probed with 8-byte loads, greedy matching with
// word-at-a-time extension, and a token-based output format with no
// entropy stage. It stands in for the lzo codec the paper's production
// SFMs use for low CPU overhead (§2.1); the kernels are written the
// way production LZ4-class codecs are written — machine-word probes and
// copies, not byte loops.
//
// Stream format (little-endian), unchanged since the byte-serial
// implementation (wire compatibility in both directions is pinned by
// the differential fuzz targets in compat_fuzz_test.go):
//
//	varint originalLen
//	sequence*:
//	  token byte: hi nibble = literal run length (15 ⇒ extended bytes
//	              follow, each adding 0-254, terminated by a byte <255);
//	              lo nibble = match length − 4 (15 ⇒ extended likewise)
//	  literal bytes
//	  uint16 match offset (absent in the final sequence)
//	  extended match length bytes (absent in the final sequence)
//
// The final sequence of a stream carries only literals; its token's low
// nibble is zero and no offset follows.
type LZFast struct {
	// maxOffset limits how far back matches may reach. This models the
	// compression window and is exercised by the multi-channel-mode
	// experiments (Fig. 8), where per-DIMM windows shrink to 2 KiB and
	// 1 KiB.
	maxOffset int
}

const (
	lzfMinMatch  = 4
	lzfMaxOffset = 65535
	lzfHashLog   = 13
	// lzfAccept is the prefer-recent heuristic threshold: when the most
	// recent hash slot already yields a match this long, the second
	// slot is not probed. Recent candidates win ties anyway (shorter
	// offsets), so the extra probe only pays off for short matches.
	lzfAccept = 32
	// lzfFastIn and lzfFastOut are the room the decoder's fast loop
	// wants in front of a sequence. Input: the token, the ≤ 14 literals
	// of a short run (read as two 8-byte words: 16 bytes), the offset
	// and one match-length extension byte. Output: those literals, a
	// short (≤ 18-byte) match and one word of store overshoot.
	lzfFastIn  = 1 + 14 + 2 + 1
	lzfFastOut = 14 + 18 + 8
)

// lzfEncState is the pooled state of the compress hot path: a two-slot
// hash table that is never cleared between calls. A slot is
// stamp<<32 | first four bytes ^ salt, stamp = base + 1 + position.
// Every call takes the next len(src)+1 stamps and a salt that is a
// bijection of its base, so a slot an earlier call left behind fails the
// prefix compare just as an empty one does — the probe rejects a
// position from the bucket alone, with no load from src — and the one
// stale slot in 2³² whose salted prefix does coincide has a stamp that
// is not above base (an empty slot's is 0).
type lzfEncState struct {
	base uint32 // the last stamp handed out
	tab  [1 << lzfHashLog][2]uint64
}

var lzfEncPool = sync.Pool{New: func() any { return new(lzfEncState) }}

// lzfSalt is odd-multiplicative, hence distinct for distinct bases.
func lzfSalt(base uint32) uint32 { return base * 0x9E3779B1 }

// NewLZFast returns the default LZFast codec with a 64 KiB window.
func NewLZFast() *LZFast { return &LZFast{maxOffset: lzfMaxOffset} }

// NewLZFastWindow returns an LZFast codec whose matches are limited to
// the given window in bytes (clamped to [1, 65535]).
//
//xfm:ignore unreachable the window-limited LZFast that allCodecs (compress_test.go) and TestPropertyRoundTripStructured round-trip
func NewLZFastWindow(window int) *LZFast {
	if window < 1 {
		window = 1
	}
	if window > lzfMaxOffset {
		window = lzfMaxOffset
	}
	return &LZFast{maxOffset: window}
}

// Name implements Codec.
func (z *LZFast) Name() string {
	if z.maxOffset == lzfMaxOffset {
		return "lzfast"
	}
	return "lzfast-w" + itoa(z.maxOffset)
}

// Info implements Codec. Constants follow the paper's lzo-class cost:
// fast compression and very fast decompression.
func (z *LZFast) Info() CodecInfo {
	return CodecInfo{
		CompressCyclesPerByte:   6.0,
		DecompressCyclesPerByte: 1.5,
	}
}

// MaxCompressedLen implements Codec.
func (z *LZFast) MaxCompressedLen(n int) int {
	// varint header + literals + one extension byte per 255 literals
	// + token overhead.
	return n + n/255 + 16
}

// lzfHash8 hashes the low 5 bytes of an 8-byte little-endian load.
// Hashing one byte past the 4-byte minimum match keeps the two slots
// from filling up with short-period collisions while still finding
// every ≥ 5-byte repeat; 4-byte candidates are verified explicitly.
func lzfHash8(v uint64) uint32 {
	return uint32(((v << 24) * 0x9E3779B185EBCA87) >> (64 - lzfHashLog))
}

// lzfExtendMatch returns the common-prefix length of src[a:] and
// src[b:] (b > a), comparing 8 bytes per iteration and finishing the
// first differing word with a trailing-zero count.
func lzfExtendMatch(src []byte, a, b int) int {
	n := 0
	for b+n+8 <= len(src) {
		x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// Compress implements Codec.
func (z *LZFast) Compress(dst, src []byte) []byte {
	st := lzfEncPool.Get().(*lzfEncState)
	dst = st.compress(dst, src, z.maxOffset)
	lzfEncPool.Put(st)
	return dst
}

// compress appends src's stream to dst. What st compressed before does
// not show in the stream; the table is cleared only when the 32-bit
// stamps run out (every ≈ 10⁶ pages).
func (st *lzfEncState) compress(dst, src []byte, maxOffset int) []byte {
	dst = appendUvarint(dst, uint64(len(src)))
	if uint64(st.base)+uint64(len(src)) >= 1<<32-1 {
		*st = lzfEncState{}
	}
	base := st.base
	st.base += uint32(len(src)) + 1
	anchor := 0 // start of pending literal run
	for {
		i, off, mlen := st.nextMatch(src, anchor, base, maxOffset)
		if mlen == 0 {
			break
		}
		dst = lzfEmit(dst, src[anchor:i], off, mlen)
		anchor = i + mlen
	}
	// Trailing literals-only sequence, omitted when a match consumed
	// the input exactly.
	if anchor < len(src) {
		dst = lzfEmitFinal(dst, src[anchor:])
	}
	return dst
}

// nextMatch probes and inserts every position from i on and returns the
// first that has a match — position, offset, length; length 0 means the
// input ran out (word probes need an 8-byte load, so the < 8-byte tail
// is never probed). It is a function of its own so that nothing of the
// output side — dst, anchor — is live in the literal-run loop: that
// loop's state fits the registers, and s shrinking instead of an index
// growing is what lets the compiler drop its bounds checks.
func (st *lzfEncState) nextMatch(src []byte, i int, base uint32, maxOffset int) (int, int, int) {
	salt := lzfSalt(base)
	stamp := uint64(base+1+uint32(i)) << 32
	for s := src[i:]; len(s) >= 8; s, stamp = s[1:], stamp+1<<32 {
		v := binary.LittleEndian.Uint64(s)
		b := &st.tab[lzfHash8(v)]
		e0, e1 := b[0], b[1]
		key := uint32(v) ^ salt
		b[1] = e0
		b[0] = stamp + uint64(key) // an or, but LEA leaves stamp in its register
		if uint32(e0) != key && uint32(e1) != key {
			continue
		}
		// A slot with this salted prefix is this call's, and its four
		// bytes are s[:4], unless its stamp is not above base — which
		// reads as a distance beyond i. Prefer-recent: slot 0 holds the
		// most recent position with this hash; only when its match is
		// short is the older slot worth probing for a longer one.
		i := len(src) - len(s)
		reach := uint32(min(i, maxOffset))
		off, mlen := 0, 0
		if d := uint32(stamp>>32) - uint32(e0>>32); uint32(e0) == key && d <= reach {
			off = int(d)
			mlen = lzfMinMatch + lzfExtendMatch(src, i-off+lzfMinMatch, i+lzfMinMatch)
		}
		if d := uint32(stamp>>32) - uint32(e1>>32); mlen < lzfAccept && uint32(e1) == key && d <= reach {
			if l := lzfMinMatch + lzfExtendMatch(src, i-int(d)+lzfMinMatch, i+lzfMinMatch); l > mlen {
				off, mlen = int(d), l
			}
		}
		if mlen != 0 {
			return i, off, mlen
		}
	}
	return 0, 0, 0
}

// lzfEmit appends one (literals, match) sequence. Capacity for the
// whole sequence is ensured once up front, then every byte is written
// by index — no per-byte append bounds checks on the hot path.
func lzfEmit(dst, lits []byte, offset, mlen int) []byte {
	litLen := len(lits)
	matchCode := mlen - lzfMinMatch
	// Worst case: token + litLen/255+1 extension bytes + literals +
	// 2-byte offset + matchCode/255+1 extension bytes.
	need := 1 + litLen/255 + 1 + litLen + 2 + matchCode/255 + 1
	o := len(dst)
	dst = growSlack(dst, need)
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if matchCode >= 15 {
		token |= 15
	} else {
		token |= byte(matchCode)
	}
	dst[o] = token
	o++
	if litLen >= 15 {
		o = lzfPutExt(dst, o, litLen-15)
	}
	copy(dst[o:], lits)
	o += litLen
	dst[o] = byte(offset)
	dst[o+1] = byte(offset >> 8)
	o += 2
	if matchCode >= 15 {
		o = lzfPutExt(dst, o, matchCode-15)
	}
	return dst[:o]
}

// lzfEmitFinal appends the terminal literals-only sequence.
func lzfEmitFinal(dst, lits []byte) []byte {
	litLen := len(lits)
	o := len(dst)
	dst = growSlack(dst, 1+litLen/255+1+litLen)
	if litLen >= 15 {
		dst[o] = 15 << 4
		o++
		o = lzfPutExt(dst, o, litLen-15)
	} else {
		dst[o] = byte(litLen) << 4
		o++
	}
	copy(dst[o:], lits)
	return dst[:o+litLen]
}

// lzfPutExt writes an extension count at dst[o:]: bytes of 255
// followed by the remainder byte (<255). Returns the new offset.
func lzfPutExt(dst []byte, o, n int) int {
	for n >= 255 {
		dst[o] = 255
		o++
		n -= 255
	}
	dst[o] = byte(n)
	return o + 1
}

// growSlack extends dst's length by n (contents unspecified),
// reallocating only when capacity is short — the index-write
// counterpart of repeated appends.
func growSlack(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	grown := make([]byte, len(dst)+n, (len(dst)+n)*2+64)
	copy(grown, dst)
	return grown
}

// Decompress implements Codec.
func (z *LZFast) Decompress(dst, src []byte) ([]byte, error) {
	origLen, n, ok := readUvarint(src)
	if !ok {
		return dst, ErrCorrupt
	}
	src = src[n:]
	base := len(dst)
	want := base + int(origLen)
	if want <= base {
		// Zero-length claim (or a wrapped 64-bit one): valid only when
		// nothing follows the header.
		if len(src) != 0 {
			return dst, ErrCorrupt
		}
		return dst, nil
	}
	// Expansion sanity bound: one compressed byte cannot decode to more
	// than 255 output bytes (extension bytes add ≤ 255 each), so a
	// longer claim is corrupt. Checking up front lets the hot loop
	// reserve the whole output once and write by index.
	if origLen > uint64(len(src))*256+64 {
		return dst, ErrCorrupt
	}
	// Exact-size reservation: callers decompress in place into
	// page-sized buffers (CPUBackend passes dst[:0] with cap PageSize),
	// so the output must not outgrow want. Word-wise copies below are
	// bounded to never overshoot it.
	out := Grow(dst, int(origLen))
	o := base
	s := 0
	for o < want {
		// Fast loop: one whole sequence per iteration while it has the
		// common shape and lzfFastIn/lzfFastOut bytes of room. It only
		// ever declines — on anything else it stops with s and o still in
		// front of the sequence, and the exact code below takes that one
		// sequence (or rejects the stream) and hands back.
		for s+lzfFastIn <= len(src) && o+lzfFastOut <= want {
			token := src[s]
			litLen := int(token >> 4)
			p := s + 1 // first literal
			if litLen < 15 {
				// Two fixed 8-byte copies cover the ≤ 14 literals; the
				// excess is overwritten by what follows.
				copy16(out[o:], src[p:])
			} else {
				// A long run with a single extension byte, copied in
				// 16-byte strides that may overshoot by 15 on both sides.
				ext := int(src[p])
				p++
				litLen += ext
				if ext == 255 || p+litLen+15 > len(src) || o+litLen+lzfFastOut > want {
					break
				}
				for k := 0; k < litLen; k += 16 {
					copy16(out[o+k:], src[p+k:])
				}
			}
			q := p + litLen // offset field
			offset := int(src[q]) | int(src[q+1])<<8
			q += 2
			m := o + litLen // match destination
			start := m - offset
			if offset == 0 || start < base {
				break
			}
			mlen := int(token&0x0f) + lzfMinMatch
			if token&0x0f < 15 {
				switch {
				case offset >= 16:
					// Source and destination words cannot overlap: 16
					// bytes unconditionally, so the common ≤ 16-byte
					// match costs no length-dependent branch. One
					// conversion bounds all three words.
					from, to := (*[24]byte)(out[start:]), (*[24]byte)(out[m:])
					copy16(to[:], from[:])
					if mlen > 16 {
						binary.LittleEndian.PutUint64(to[16:], binary.LittleEndian.Uint64(from[16:]))
					}
				case offset >= 8:
					// Each word is loaded from bytes the previous store
					// just wrote; copying only what the match needs keeps
					// those loads forwardable.
					for k := 0; k < mlen; k += 8 {
						binary.LittleEndian.PutUint64(out[m+k:], binary.LittleEndian.Uint64(out[start+k:]))
					}
				default:
					lzfFillPeriod(out, m, offset, mlen)
				}
			} else {
				ext := int(src[q])
				q++
				mlen += ext
				if ext == 255 || m+mlen+16 > want {
					break
				}
				if offset >= 8 {
					for k := 0; k < mlen; k += 16 {
						copy16(out[m+k:], out[start+k:])
					}
				} else {
					lzfFillPeriod(out, m, offset, mlen)
				}
			}
			s = q
			o = m + mlen
		}
		if s >= len(src) {
			return dst, ErrCorrupt
		}
		token := src[s]
		s++
		litLen := int(token >> 4)
		if litLen == 15 {
			ext, ns, err := lzfReadExtAt(src, s)
			if err != nil {
				return dst, err
			}
			litLen += ext
			s = ns
		}
		if litLen > len(src)-s {
			return dst, ErrCorrupt
		}
		if o+litLen > want {
			return dst, ErrCorrupt
		}
		copy(out[o:], src[s:s+litLen])
		o += litLen
		s += litLen
		if o == want {
			// Final literals-only sequence: the match half of the
			// token must be empty and the stream must end here.
			if token&0x0f != 0 {
				return dst, ErrCorrupt
			}
			break
		}
		if len(src)-s < 2 {
			return dst, ErrCorrupt
		}
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		mlen := int(token&0x0f) + lzfMinMatch
		if token&0x0f == 15 {
			ext, ns, err := lzfReadExtAt(src, s)
			if err != nil {
				return dst, err
			}
			mlen += ext
			s = ns
		}
		start := o - offset
		if offset == 0 || start < base {
			return dst, ErrCorrupt
		}
		if o+mlen > want {
			return dst, ErrCorrupt
		}
		if offset >= 8 {
			// Word-wise match copy. The wildcopy form overshoots by up
			// to 7 bytes, so it runs only while that slack fits inside
			// the output; the final match of a stream finishes with an
			// exact word loop plus a byte tail.
			k := 0
			if o+mlen+8 <= len(out) {
				for ; k < mlen; k += 8 {
					binary.LittleEndian.PutUint64(out[o+k:], binary.LittleEndian.Uint64(out[start+k:]))
				}
			} else {
				for ; k+8 <= mlen; k += 8 {
					binary.LittleEndian.PutUint64(out[o+k:], binary.LittleEndian.Uint64(out[start+k:]))
				}
				for ; k < mlen; k++ {
					out[o+k] = out[start+k]
				}
			}
			o += mlen
		} else {
			// Overlapping copy (RLE via offset < length): write one
			// period byte-wise, then double the region with
			// memmove-backed copies.
			end := o + mlen
			p := o
			for k := 0; k < offset && p < end; k++ {
				out[p] = out[start+k]
				p++
			}
			for p < end {
				p += copy(out[p:end], out[start:p])
			}
			o = end
		}
	}
	if s != len(src) {
		return dst, ErrCorrupt
	}
	return out[:want], nil
}

// copy16 copies 16 bytes as two words in program order — the second is
// loaded after the first is stored — so a source that overlaps the
// destination 8 or more bytes back reads what it should. The slices
// only need to be long enough: the conversions check len, not cap, so
// a copy that would pass the end of a slice panics rather than landing
// in spare capacity.
func copy16(dst, src []byte) {
	to, from := (*[16]byte)(dst), (*[16]byte)(src)
	binary.LittleEndian.PutUint64(to[:8], binary.LittleEndian.Uint64(from[:8]))
	binary.LittleEndian.PutUint64(to[8:], binary.LittleEndian.Uint64(from[8:]))
}

// lzfFillPeriod writes an mlen-byte match whose offset is below 8 — a
// repeating period — at out[m:], overshooting by up to 7 bytes. The
// period is replicated across a register; each store then advances by
// the largest multiple of the period that fits a word, so no store is
// read back.
func lzfFillPeriod(out []byte, m, offset, mlen int) {
	v := binary.LittleEndian.Uint64(out[m-offset:]) & (1<<(8*uint(offset)) - 1)
	v |= v << (8 * uint(offset))
	v |= v << (16 * uint(offset))
	v |= v << (32 * uint(offset))
	step := 8 - 8%offset
	for k := 0; k < mlen; k += step {
		binary.LittleEndian.PutUint64(out[m+k:], v)
	}
}

// lzfReadExtAt reads an extension count at src[o:], returning the
// count and the new offset.
func lzfReadExtAt(src []byte, o int) (int, int, error) {
	ext := 0
	for {
		if o >= len(src) {
			return 0, o, ErrCorrupt
		}
		b := src[o]
		o++
		ext += int(b)
		if b < 255 {
			return ext, o, nil
		}
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func readUvarint(src []byte) (v uint64, n int, ok bool) {
	var shift uint
	for i, b := range src {
		if i >= 10 {
			return 0, 0, false
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1, true
		}
		shift += 7
	}
	return 0, 0, false
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
