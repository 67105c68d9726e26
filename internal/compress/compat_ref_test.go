package compress

// Reference (pre-word-wise) codec implementations, frozen at the PR 2
// state of lzfast.go / xdeflate.go / bitio.go / huffman.go. They pin
// the stream formats: the differential fuzz targets in
// compat_fuzz_test.go check that streams produced by the word-wise
// encoders decode through these reference decoders and vice versa, so
// a kernel optimization can never silently fork the format.
//
// Everything here is a byte-for-byte copy of the old hot paths with a
// `ref` prefix, kept deliberately byte-serial. Do not optimize this
// file.

// --- reference LZFast ---

type refLZFast struct {
	maxOffset int
}

func newRefLZFast() *refLZFast { return &refLZFast{maxOffset: lzfMaxOffset} }

func (z *refLZFast) Compress(dst, src []byte) []byte {
	dst = appendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	var table [1 << 13]int32
	for i := range table {
		table[i] = -1
	}
	hash := func(v uint32) uint32 { return (v * 2654435761) >> (32 - 13) }
	load32 := func(p []byte) uint32 {
		return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
	}
	anchor := 0
	i := 0
	limit := len(src) - lzfMinMatch
	for i <= limit {
		h := hash(load32(src[i:]))
		cand := int(table[h])
		table[h] = int32(i)
		if cand >= 0 && i-cand <= z.maxOffset && load32(src[cand:]) == load32(src[i:]) {
			mlen := lzfMinMatch
			for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
				mlen++
			}
			dst = refLzfEmit(dst, src[anchor:i], i-cand, mlen)
			i += mlen
			anchor = i
			continue
		}
		i++
	}
	if anchor < len(src) {
		dst = refLzfEmitFinal(dst, src[anchor:])
	}
	return dst
}

func refLzfEmit(dst, lits []byte, offset, mlen int) []byte {
	litLen := len(lits)
	matchCode := mlen - lzfMinMatch
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
	dst = append(dst, token)
	if litLen >= 15 {
		dst = refLzfExt(dst, litLen-15)
	}
	dst = append(dst, lits...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if matchCode >= 15 {
		dst = refLzfExt(dst, matchCode-15)
	}
	return dst
}

func refLzfEmitFinal(dst, lits []byte) []byte {
	litLen := len(lits)
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = refLzfExt(dst, litLen-15)
	}
	return append(dst, lits...)
}

func refLzfExt(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

func (z *refLZFast) Decompress(dst, src []byte) ([]byte, error) {
	origLen, n, ok := readUvarint(src)
	if !ok {
		return dst, ErrCorrupt
	}
	src = src[n:]
	base := len(dst)
	want := base + int(origLen)
	for len(dst) < want {
		if len(src) == 0 {
			return dst, ErrCorrupt
		}
		token := src[0]
		src = src[1:]
		litLen := int(token >> 4)
		if litLen == 15 {
			var ext int
			var err error
			ext, src, err = refLzfReadExt(src)
			if err != nil {
				return dst, err
			}
			litLen += ext
		}
		if litLen > len(src) {
			return dst, ErrCorrupt
		}
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]
		if len(dst) == want {
			if token&0x0f != 0 {
				return dst, ErrCorrupt
			}
			break
		}
		if len(dst) > want {
			return dst, ErrCorrupt
		}
		if len(src) < 2 {
			return dst, ErrCorrupt
		}
		offset := int(src[0]) | int(src[1])<<8
		src = src[2:]
		mlen := int(token&0x0f) + lzfMinMatch
		if token&0x0f == 15 {
			var ext int
			var err error
			ext, src, err = refLzfReadExt(src)
			if err != nil {
				return dst, err
			}
			mlen += ext
		}
		start := len(dst) - offset
		if offset == 0 || start < base {
			return dst, ErrCorrupt
		}
		if len(dst)+mlen > want {
			return dst, ErrCorrupt
		}
		for k := 0; k < mlen; k++ {
			dst = append(dst, dst[start+k])
		}
	}
	if len(src) != 0 {
		return dst, ErrCorrupt
	}
	return dst, nil
}

func refLzfReadExt(src []byte) (int, []byte, error) {
	ext := 0
	for {
		if len(src) == 0 {
			return 0, src, ErrCorrupt
		}
		b := src[0]
		src = src[1:]
		ext += int(b)
		if b < 255 {
			return ext, src, nil
		}
	}
}

// --- reference LZFast encoder, two-slot (frozen at PR 18) ---
//
// refLZFast above pins the wire format; this pins the bytes. The chaos
// gate, cmd/dramsim and cmd/tracegen all build on NewLZFast, so their
// recordings are functions of exactly which matches the shipped encoder
// picks: two hash slots per bucket probed most-recent first, a hash over
// five bytes, a 4-byte verify, and the second slot skipped once the
// first yields 32 bytes. The copy keeps those decisions and nothing of
// how they are made fast.

type refLZFastTwoSlot struct {
	maxOffset int
}

func (z *refLZFastTwoSlot) Compress(dst, src []byte) []byte {
	dst = appendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	type bucket struct {
		used bool
		pos  [2]int
	}
	table := make([]bucket, 1<<13)
	load := func(i, n int) uint64 {
		v := uint64(0)
		for k := 0; k < n; k++ {
			v |= uint64(src[i+k]) << (8 * k)
		}
		return v
	}
	matchLen := func(a, b int) int {
		n := 0
		for b+n < len(src) && src[a+n] == src[b+n] {
			n++
		}
		return n
	}
	anchor := 0
	i := 0
	for i+8 <= len(src) {
		h := (load(i, 5) << 24) * 0x9E3779B185EBCA87 >> (64 - 13)
		cand, mlen := -1, 0
		b := &table[h]
		if b.used {
			s0, s1 := b.pos[0], b.pos[1]
			if i-s0 <= z.maxOffset && load(s0, 4) == load(i, 4) {
				cand, mlen = s0, matchLen(s0, i)
			}
			if mlen < 32 && s1 >= 0 && i-s1 <= z.maxOffset && load(s1, 4) == load(i, 4) {
				if l := matchLen(s1, i); l > mlen {
					cand, mlen = s1, l
				}
			}
			b.pos[1], b.pos[0] = b.pos[0], i
		} else {
			*b = bucket{used: true, pos: [2]int{i, -1}}
		}
		if mlen >= lzfMinMatch {
			dst = refLzfEmit(dst, src[anchor:i], i-cand, mlen)
			i += mlen
			anchor = i
			continue
		}
		i++
	}
	if anchor < len(src) {
		dst = refLzfEmitFinal(dst, src[anchor:])
	}
	return dst
}

// --- reference bit I/O (per-byte flush, bit-serial read) ---

type refBitWriter struct {
	buf  []byte
	acc  uint64
	nacc uint
}

func (w *refBitWriter) writeBits(v uint32, n uint) {
	w.acc |= uint64(v) << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

func (w *refBitWriter) flush() []byte {
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
	return w.buf
}

type refBitReader struct {
	src  []byte
	pos  int
	acc  uint64
	nacc uint
	bad  bool
}

func (r *refBitReader) fill() {
	for r.nacc <= 56 && r.pos < len(r.src) {
		r.acc |= uint64(r.src[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

func (r *refBitReader) readBits(n uint) uint32 {
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

// --- reference canonical Huffman decoder (bit-serial tree walk) ---

type refHuffDecoder struct {
	count [huffMaxBits + 1]int
	syms  []int
}

func (d *refHuffDecoder) init(lengths []uint8) {
	for i := range d.count {
		d.count[i] = 0
	}
	n := 0
	for _, l := range lengths {
		if l > 0 {
			d.count[l]++
			n++
		}
	}
	if cap(d.syms) < n {
		d.syms = make([]int, n)
	}
	d.syms = d.syms[:n]
	idx := 0
	for l := uint8(1); l <= huffMaxBits; l++ {
		if d.count[l] == 0 {
			continue
		}
		for sym, sl := range lengths {
			if sl == l {
				d.syms[idx] = sym
				idx++
			}
		}
	}
}

func (d *refHuffDecoder) decode(r *refBitReader) int {
	code := 0
	first := 0
	index := 0
	for l := 1; l <= huffMaxBits; l++ {
		code |= int(r.readBits(1))
		if r.bad {
			return -1
		}
		count := d.count[l]
		if code-first < count {
			return d.syms[index+code-first]
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return -1
}

// --- reference LZ77 matcher (byte-serial matchLen, linear code maps) ---

func refLengthCode(l int) int {
	for c := len(lengthBase) - 1; c >= 0; c-- {
		if l >= lengthBase[c] {
			return c
		}
	}
	return 0
}

func refDistCode(d int) int {
	for c := len(distBase) - 1; c >= 0; c-- {
		if d >= distBase[c] {
			return c
		}
	}
	return 0
}

// lzToken is either a literal (length == 0, lit valid) or a match
// (length in [3,258], dist in [1,window]).
type lzToken struct {
	length uint16
	dist   uint16
	lit    byte
}

type refLZ77Encoder struct {
	tokens []lzToken
	head   [1 << lz77HashLog]int32
	prev   []int32
	src    []byte
	window int
}

func (e *refLZ77Encoder) insert(pos int) {
	if pos+lz77MinMatch > len(e.src) {
		return
	}
	h := refLZ77Hash(e.src[pos:])
	e.prev[pos] = e.head[h]
	e.head[h] = int32(pos)
}

func (e *refLZ77Encoder) findMatch(i int) (bestLen, bestDist int) {
	src := e.src
	if i+lz77MinMatch > len(src) {
		return 0, 0
	}
	h := refLZ77Hash(src[i:])
	cand := e.head[h]
	chain := 0
	for cand >= 0 && chain < lz77MaxChain {
		c := int(cand)
		dist := i - c
		if dist > e.window {
			break
		}
		if dist > 0 {
			l := refMatchLen(src, c, i)
			if l > bestLen {
				bestLen, bestDist = l, dist
				if l >= lz77MaxMatch {
					break
				}
			}
		}
		cand = e.prev[c]
		chain++
	}
	return bestLen, bestDist
}

func (e *refLZ77Encoder) parse(src []byte, window int, lazy bool) []lzToken {
	if window < 1 {
		window = 1
	}
	if window > 65535 {
		window = 65535
	}
	e.src, e.window = src, window
	e.tokens = e.tokens[:0]
	for i := range e.head {
		e.head[i] = -1
	}
	if cap(e.prev) < len(src) {
		e.prev = make([]int32, len(src))
	}
	e.prev = e.prev[:len(src)]
	i, misses := 0, 0
	for i < len(src) {
		bestLen, bestDist := e.findMatch(i)
		if bestLen >= lz77MinMatch {
			misses = 0
		}
		if lazy && bestLen >= lz77MinMatch && bestLen < lz77MaxMatch && i+1 < len(src) {
			e.insert(i)
			nextLen, nextDist := e.findMatch(i + 1)
			firstInsert := 1
			if nextLen > bestLen {
				e.tokens = append(e.tokens, lzToken{lit: src[i]})
				i++
				bestLen, bestDist = nextLen, nextDist
				firstInsert = 0
			}
			e.tokens = append(e.tokens, lzToken{length: uint16(bestLen), dist: uint16(bestDist)})
			for k := firstInsert; k < bestLen; k++ {
				e.insert(i + k)
			}
			i += bestLen
			continue
		}
		if bestLen >= lz77MinMatch {
			if bestLen > lz77MaxMatch {
				bestLen = lz77MaxMatch
			}
			e.tokens = append(e.tokens, lzToken{length: uint16(bestLen), dist: uint16(bestDist)})
			for k := 0; k < bestLen; k++ {
				e.insert(i + k)
			}
			i += bestLen
		} else {
			// Literal-run stride: the positions stepped over are
			// literals, neither searched nor inserted.
			step := 1 + misses>>lz77SkipShift
			misses++
			for k := 0; k < step && i < len(src); k++ {
				e.tokens = append(e.tokens, lzToken{lit: src[i]})
				if k == 0 {
					e.insert(i)
				}
				i++
			}
		}
	}
	e.src = nil
	return e.tokens
}

func refMatchLen(src []byte, a, b int) int {
	n := 0
	maxN := len(src) - b
	if maxN > lz77MaxMatch {
		maxN = lz77MaxMatch
	}
	for n < maxN && src[a+n] == src[b+n] {
		n++
	}
	return n
}

func refLZ77Hash(p []byte) uint32 {
	v := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
	return (v * 2654435761) >> (32 - lz77HashLog)
}

// --- reference XDeflate ---

type refXDeflate struct {
	window int
	lazy   bool
}

func newRefXDeflate() *refXDeflate { return &refXDeflate{window: 32768, lazy: true} }

func (x *refXDeflate) Compress(dst, src []byte) []byte {
	dst = appendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return append(dst, 0)
	}
	body := x.encodeHuffman(src)
	if body == nil || len(body) >= len(src) {
		dst = append(dst, 0)
		return append(dst, src...)
	}
	dst = append(dst, 1)
	return append(dst, body...)
}

func (x *refXDeflate) encodeHuffman(src []byte) []byte {
	var lz refLZ77Encoder
	tokens := lz.parse(src, x.window, x.lazy)
	litFreq := make([]int, xdLitLenSyms)
	distFreq := make([]int, xdDistSyms)
	for _, t := range tokens {
		if t.length == 0 {
			litFreq[t.lit]++
		} else {
			litFreq[257+refLengthCode(int(t.length))]++
			distFreq[refDistCode(int(t.dist))]++
		}
	}
	litFreq[xdEOB]++
	litLens := huffBuildLengths(litFreq)
	distLens := huffBuildLengths(distFreq)
	litCodes := huffCanonicalCodes(litLens)
	distCodes := huffCanonicalCodes(distLens)

	maxLit := maxUsedSym(litLens)
	maxDist := maxUsedSym(distLens)
	out := []byte{byte(maxLit), byte(maxLit >> 8)}
	out = packNibbles(out, litLens[:maxLit+1])
	out = append(out, byte(maxDist))
	if maxDist >= 0 {
		out = packNibbles(out, distLens[:maxDist+1])
	}

	w := refBitWriter{buf: out}
	emitLit := func(sym int) {
		w.writeBits(litCodes[sym], uint(litLens[sym]))
	}
	for _, t := range tokens {
		if t.length == 0 {
			emitLit(int(t.lit))
			continue
		}
		lc := refLengthCode(int(t.length))
		emitLit(257 + lc)
		w.writeBits(uint32(int(t.length)-lengthBase[lc]), lengthExtra[lc])
		dc := refDistCode(int(t.dist))
		w.writeBits(distCodes[dc], uint(distLens[dc]))
		w.writeBits(uint32(int(t.dist)-distBase[dc]), distExtra[dc])
	}
	emitLit(xdEOB)
	return w.flush()
}

func (x *refXDeflate) Decompress(dst, src []byte) ([]byte, error) {
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
	case 0:
		if len(src) != int(origLen) {
			return dst, ErrCorrupt
		}
		return append(dst, src...), nil
	case 1:
		return x.decodeHuffman(dst, src, want, base)
	default:
		return dst, ErrCorrupt
	}
}

func (x *refXDeflate) decodeHuffman(dst, src []byte, want, base int) ([]byte, error) {
	if len(src) < 2 {
		return dst, ErrCorrupt
	}
	maxLit := int(src[0]) | int(src[1])<<8
	src = src[2:]
	if maxLit < xdEOB || maxLit >= xdLitLenSyms {
		return dst, ErrCorrupt
	}
	litLens := make([]uint8, xdLitLenSyms)
	var ok bool
	src, ok = unpackNibbles(src, litLens[:maxLit+1])
	if !ok || len(src) < 1 {
		return dst, ErrCorrupt
	}
	maxDist := int(int8(src[0]))
	src = src[1:]
	distLens := make([]uint8, xdDistSyms)
	if maxDist >= 0 {
		if maxDist >= xdDistSyms {
			return dst, ErrCorrupt
		}
		src, ok = unpackNibbles(src, distLens[:maxDist+1])
		if !ok {
			return dst, ErrCorrupt
		}
	}
	var litDec, distDec refHuffDecoder
	litDec.init(litLens)
	distDec.init(distLens)
	r := refBitReader{src: src}
	for {
		sym := litDec.decode(&r)
		if sym < 0 {
			return dst, ErrCorrupt
		}
		if sym == xdEOB {
			break
		}
		if sym < 256 {
			if len(dst) >= want {
				return dst, ErrCorrupt
			}
			dst = append(dst, byte(sym))
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
		start := len(dst) - dist
		if start < base || len(dst)+length > want {
			return dst, ErrCorrupt
		}
		for k := 0; k < length; k++ {
			dst = append(dst, dst[start+k])
		}
	}
	if len(dst) != want {
		return dst, ErrCorrupt
	}
	return dst, nil
}
