package compress

import (
	"encoding/binary"
	"math/bits"
)

// LZ77 matcher with hash chains used by the xdeflate codec. The window
// size is configurable so the multi-channel experiments (Fig. 8) can
// model the reduced per-DIMM compression windows (4 KiB → 2 KiB → 1 KiB).

// lz77MaxChain bounds the candidates one probe walks, and
// lz77SkipShift sets how fast a literal run strides: the step between
// probes grows by one position every 1<<lz77SkipShift consecutive
// probes that find no match. Chain 8 and shift 3 are the fastest point
// of the measured parse frontier whose mixed-corpus output stays within
// 1 % of a 32-candidate walk at every position (DESIGN §8).
const (
	lz77MinMatch  = 3
	lz77MaxMatch  = 258
	lz77HashLog   = 14
	lz77MaxChain  = 8
	lz77SkipShift = 3
)

// lzSeq is a run of lits literals followed by a match of length bytes
// (in [3,258]) at distance dist (in [1,window]), whose length and
// distance codes are lc and dc. The last sequence of a parse has
// length 0: its literals end the input.
type lzSeq struct {
	lits   uint32
	length uint16
	dist   uint16
	lc, dc uint8
}

// lz77Encoder holds the matcher's reusable state (sequence output, hash
// heads, chain links, symbol frequencies) so the hot path parses
// without allocating. It is pooled inside the xdeflate encode state; a
// zero value is ready to use.
//
// head and prev hold position+1, so 0 means "no entry" and the
// per-parse reset of head is a clear(); prev needs no reset because a
// slot is written (by the insert of its position) before any chain walk
// can reach it.
type lz77Encoder struct {
	seqs   []lzSeq
	head   [1 << lz77HashLog]int32
	prev   []int32
	src    []byte
	window int
	// litFreq/distFreq count the litlen and distance symbols of the
	// last parse (without the end-of-block symbol).
	litFreq  [xdLitLenSyms]int
	distFreq [xdDistSyms]int
}

// lz77Hash hashes the three bytes in the low 24 bits of v.
func lz77Hash(v uint32) uint32 {
	return ((v & 0xffffff) * 2654435761) >> (32 - lz77HashLog)
}

// load24 reads the three bytes at src[p:], for the one position whose
// hashed bytes are the last three of src and a 32-bit load would overrun.
func load24(src []byte, p int) uint32 {
	return uint32(src[p]) | uint32(src[p+1])<<8 | uint32(src[p+2])<<16
}

// probe inserts position i into the hash chains and returns the first
// longest match among the (at most lz77MaxChain, in-window) earlier
// positions on its chain, provided it is strictly longer than floor;
// otherwise it returns (floor, 0). A position too close to the end to
// have a 3-byte hash is neither searched nor inserted.
//
// A candidate is first tested on the four bytes that end at offset
// bestLen (the three hashed bytes while nothing is found yet): a match
// longer than bestLen must agree on all of them, so a mismatch rejects
// it without the word-wise compare.
func (e *lz77Encoder) probe(i, floor int) (bestLen, bestDist int) {
	src := e.src
	bestLen = floor
	var v uint32
	switch rem := len(src) - i; {
	case rem > lz77MinMatch:
		v = binary.LittleEndian.Uint32(src[i:])
	case rem == lz77MinMatch:
		v = load24(src, i)
	default:
		return bestLen, 0
	}
	h := lz77Hash(v)
	cand := e.head[h]
	e.head[h] = int32(i + 1)
	e.prev[i] = cand
	maxLen := min(len(src)-i, lz77MaxMatch)
	if bestLen >= maxLen {
		return bestLen, 0
	}
	// The check word: src[p+off:p+off+4]&mask must equal want at p = c
	// as it does at p = i. bestLen < maxLen keeps off+4 ≤ len(src)−i.
	off, mask, want := 0, uint32(0xffffff), v&0xffffff
	if bestLen >= lz77MinMatch {
		off, mask = bestLen-3, ^uint32(0)
		want = binary.LittleEndian.Uint32(src[i+off:])
	}
	oldest := i - e.window
	for chain := lz77MaxChain; cand > 0 && chain > 0; chain-- {
		c := int(cand) - 1
		if c < oldest {
			break
		}
		if binary.LittleEndian.Uint32(src[c+off:])&mask == want {
			// Common prefix of src[c:] and src[i:], 8 bytes per step,
			// finished by a trailing-zero count of the first differing
			// word; l+8 ≤ maxLen ≤ len(src)−i keeps both loads in bounds.
			l := 0
			for {
				if l+8 > maxLen {
					for l < maxLen && src[c+l] == src[i+l] {
						l++
					}
					break
				}
				x := binary.LittleEndian.Uint64(src[c+l:]) ^ binary.LittleEndian.Uint64(src[i+l:])
				if x != 0 {
					l += bits.TrailingZeros64(x) >> 3
					break
				}
				l += 8
			}
			if l > bestLen {
				bestLen, bestDist = l, i-c
				if l >= maxLen {
					break
				}
				off, mask = l-3, ^uint32(0)
				want = binary.LittleEndian.Uint32(src[i+off:])
			}
		}
		cand = e.prev[c]
	}
	return bestLen, bestDist
}

// insertRange records positions [from, to) in the hash chains without
// searching them: the positions a match covers.
func (e *lz77Encoder) insertRange(from, to int) {
	src := e.src
	// Positions below len−3 hash from one 32-bit load; position len−3
	// has exactly three bytes left; later ones have no hash.
	last := len(src) - lz77MinMatch
	p := from
	for wide := min(to, last); p < wide; p++ {
		h := lz77Hash(binary.LittleEndian.Uint32(src[p:]))
		e.prev[p] = e.head[h]
		e.head[h] = int32(p + 1)
	}
	if p == last && p < to {
		h := lz77Hash(load24(src, p))
		e.prev[p] = e.head[h]
		e.head[h] = int32(p + 1)
	}
}

// parse produces the sequences for src with matches limited to the
// given window, and counts their symbols into litFreq/distFreq. With
// lazy matching (the standard DEFLATE heuristic) a match is deferred
// by one position when the next position holds a strictly longer one,
// trading a literal for a better match. A run of probes that find
// nothing strides (LZ4's and Snappy's literal-run acceleration): a
// miss that follows k others since the last match moves the next probe
// 1 + k>>lz77SkipShift positions on (never past the end of src), and
// the positions stepped over become literals without being searched or
// inserted. The returned slice is owned by the encoder and valid until
// the next parse call.
func (e *lz77Encoder) parse(src []byte, window int, lazy bool) []lzSeq {
	if window < 1 {
		window = 1
	}
	if window > 65535 {
		window = 65535
	}
	e.src, e.window = src, window
	clear(e.head[:])
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	if cap(e.prev) < len(src) {
		e.prev = make([]int32, len(src))
	}
	e.prev = e.prev[:len(src)]
	// Every match covers at least lz77MinMatch bytes, so this many
	// sequences suffice and they are stored by index.
	if maxSeqs := len(src)/lz77MinMatch + 1; cap(e.seqs) < maxSeqs {
		e.seqs = make([]lzSeq, maxSeqs)
	}
	seqs := e.seqs[:cap(e.seqs)]
	n, misses, lits := 0, 0, 0
	for i := 0; i < len(src); {
		// Lengths below lz77MinMatch are literals either way, so the
		// search only looks for something longer.
		bestLen, bestDist := e.probe(i, lz77MinMatch-1)
		if bestLen < lz77MinMatch {
			next := min(i+1+misses>>lz77SkipShift, len(src))
			misses++
			for ; i < next; i++ {
				e.litFreq[src[i]]++
			}
			continue
		}
		misses = 0
		inserted := i + 1
		if lazy && bestLen < lz77MaxMatch {
			// Peek one position ahead; only a strictly longer match
			// there changes the parse, so the search starts from
			// bestLen. Position i+1 is consumed (and inserted) either
			// way.
			nextLen, nextDist := e.probe(i+1, bestLen)
			inserted++
			if nextLen > bestLen {
				e.litFreq[src[i]]++
				i++
				bestLen, bestDist = nextLen, nextDist
			}
		}
		lc, dc := lengthCode(bestLen), distCode(bestDist)
		seqs[n] = lzSeq{lits: uint32(i - lits), length: uint16(bestLen), dist: uint16(bestDist), lc: uint8(lc), dc: uint8(dc)}
		n++
		e.litFreq[257+lc]++
		e.distFreq[dc]++
		// Later matches may reference every position this one covers.
		e.insertRange(inserted, i+bestLen)
		i += bestLen
		lits = i
	}
	seqs[n] = lzSeq{lits: uint32(len(src) - lits)}
	e.src = nil
	return seqs[:n+1]
}

// DEFLATE-style length and distance code tables (RFC 1951 §3.2.5).

var lengthBase = [29]int{
	3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
}

var lengthExtra = [29]uint{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

var distBase = [30]int{
	1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
	8193, 12289, 16385, 24577,
}

var distExtra = [30]uint{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// lengthCodeTab maps match length − 3 to its length code; distCodeTab
// covers distances 1..256 directly and distCodeTab2 covers 257..32768
// at (d−1)>>7 granularity (zlib's split). Both are built once at init
// from the base tables, replacing the per-token linear scans the
// encoder profile was dominated by.
var (
	lengthCodeTab [lz77MaxMatch - lz77MinMatch + 1]uint8
	distCodeTab   [256]uint8
	distCodeTab2  [256]uint8
)

func init() {
	scanLength := func(l int) int {
		for c := len(lengthBase) - 1; c >= 0; c-- {
			if l >= lengthBase[c] {
				return c
			}
		}
		return 0
	}
	scanDist := func(d int) int {
		for c := len(distBase) - 1; c >= 0; c-- {
			if d >= distBase[c] {
				return c
			}
		}
		return 0
	}
	for l := lz77MinMatch; l <= lz77MaxMatch; l++ {
		lengthCodeTab[l-lz77MinMatch] = uint8(scanLength(l))
	}
	for d := 1; d <= 256; d++ {
		distCodeTab[d-1] = uint8(scanDist(d))
	}
	for i := 0; i < 256; i++ {
		// Representative distance for bucket i: (i<<7)+1 .. (i+1)<<7;
		// all distances in a 128-wide bucket above 256 share one code.
		distCodeTab2[i] = uint8(scanDist(i<<7 + 1))
	}
}

// lengthCode maps a match length (3..258) to its length code index
// (0..28).
func lengthCode(l int) int {
	if l < lz77MinMatch {
		return 0
	}
	if l > lz77MaxMatch {
		return len(lengthBase) - 1
	}
	return int(lengthCodeTab[l-lz77MinMatch])
}

// distCode maps a distance (1..32768) to its code index (0..29).
func distCode(d int) int {
	if d < 1 {
		return 0
	}
	if d <= 256 {
		return int(distCodeTab[d-1])
	}
	if d > 32768 {
		return len(distBase) - 1
	}
	return int(distCodeTab2[(d-1)>>7])
}
