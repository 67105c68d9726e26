package compress

import "encoding/binary"

// bitWriter packs bits least-significant-first into a byte slice, the
// same bit order DEFLATE uses. Bits accumulate in a 64-bit register
// and drain with a single 64-bit store per 32 emitted bits (the low
// half is committed, the high half is rewritten by the next store), so
// the hot emit loop runs one bounds check per flush instead of one per
// byte. The emitted byte stream is identical to a per-byte flush.
type bitWriter struct {
	buf  []byte
	acc  uint64
	nacc uint
}

// writeBits appends the low n bits of v (n ≤ 32). Safe because the
// accumulator never holds more than 31 bits on entry: 31+32 < 64.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc |= uint64(v) << w.nacc
	w.nacc += n
	if w.nacc >= 32 {
		ln := len(w.buf)
		if cap(w.buf)-ln < 8 {
			w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0)[:ln]
		}
		binary.LittleEndian.PutUint64(w.buf[ln:ln+8:cap(w.buf)], w.acc)
		w.buf = w.buf[:ln+4]
		w.acc >>= 32
		w.nacc -= 32
	}
}

// flush pads the final partial byte with zero bits.
func (w *bitWriter) flush() []byte {
	for w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		if w.nacc >= 8 {
			w.nacc -= 8
		} else {
			w.nacc = 0
		}
	}
	return w.buf
}

// bitReader consumes bits least-significant-first.
type bitReader struct {
	src  []byte
	pos  int
	acc  uint64
	nacc uint
	bad  bool
}

func (r *bitReader) fill() {
	if r.pos+8 <= len(r.src) && r.nacc <= 56 {
		// Word-wise refill: one 64-bit load tops the accumulator up to
		// 56–63 bits in a single step on the common path. Only the
		// whole bytes that fit are counted; the bits of the next byte
		// that the load also brought in are ORed in again, unchanged,
		// by the refill that counts them.
		r.acc |= binary.LittleEndian.Uint64(r.src[r.pos:]) << r.nacc
		r.pos += int((63 - r.nacc) >> 3)
		r.nacc |= 56
		return
	}
	for r.nacc <= 56 && r.pos < len(r.src) {
		r.acc |= uint64(r.src[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// readBits returns the next n bits (n ≤ 32). Reading past the end sets
// bad and returns zeros.
func (r *bitReader) readBits(n uint) uint32 {
	if n == 0 {
		return 0
	}
	if r.nacc < n {
		r.fill()
		if r.nacc < n {
			r.bad = true
			return 0
		}
	}
	v := uint32(r.acc & ((1 << n) - 1))
	r.acc >>= n
	r.nacc -= n
	return v
}

// peek returns the next n bits (n ≤ 32) without consuming them,
// zero-padded when fewer than n bits remain. It never sets bad.
func (r *bitReader) peek(n uint) uint32 {
	if r.nacc < n {
		r.fill()
	}
	return uint32(r.acc & ((1 << n) - 1))
}

// consume drops n previously peeked bits. It reports false (and sets
// bad) when fewer than n bits remain, which is how a table hit on
// zero-padding at end of stream is rejected.
func (r *bitReader) consume(n uint) bool {
	if r.nacc < n {
		r.bad = true
		return false
	}
	r.acc >>= n
	r.nacc -= n
	return true
}
