package compress

import "math/bits"

// Canonical Huffman coding used by the xdeflate codec. Code lengths are
// limited to huffMaxBits; codes are assigned canonically (by length,
// then symbol), so a decoder needs only the length table.

const huffMaxBits = 15

// huffScratch holds the reusable working state of the Huffman
// construction so the hot path builds code tables without allocating.
// It lives inside the pooled xdeflate encode state.
type huffScratch struct {
	nodes []huffNode
	order []int32
	tmp   []int32
}

// huffNode is a Huffman tree node. The leaves come first in the node
// slice, in symbol order; every internal node is appended after both of
// its children.
type huffNode struct {
	weight int
	sym    int32 // leaves only
	left   int32 // internal nodes only
	right  int32
	depth  int32
}

// huffBuildLengthsInto computes length-limited Huffman code lengths for
// the given symbol frequencies into lengths (len(lengths) must equal
// len(freq)). Symbols with zero frequency get length 0. If only one
// symbol has nonzero frequency it is assigned length 1. All working
// memory comes from hs.
func huffBuildLengthsInto(lengths []uint8, freq []int, hs *huffScratch) {
	clear(lengths)
	hs.nodes = hs.nodes[:0]
	for s, f := range freq {
		if f > 0 {
			hs.nodes = append(hs.nodes, huffNode{weight: f, sym: int32(s)})
		}
	}
	n := len(hs.nodes)
	switch n {
	case 0:
		return
	case 1:
		lengths[hs.nodes[0].sym] = 1
		return
	}
	for {
		// Standard Huffman construction over the current weights, as a
		// two-queue merge: the leaves sorted by (weight, leaf index) — a
		// total order, so the code assignment is deterministic — and
		// the internal nodes, which are created in non-decreasing
		// weight order and so need no sorting. A leaf wins a weight tie
		// against an internal node.
		leaves := hs.sortLeaves(n)
		li, ii := 0, n
		for len(hs.nodes) < 2*n-1 {
			var pair [2]int32
			for k := range pair {
				if li < n && (ii >= len(hs.nodes) || hs.nodes[leaves[li]].weight <= hs.nodes[ii].weight) {
					pair[k] = leaves[li]
					li++
				} else {
					pair[k] = int32(ii)
					ii++
				}
			}
			hs.nodes = append(hs.nodes, huffNode{
				weight: hs.nodes[pair[0]].weight + hs.nodes[pair[1]].weight,
				left:   pair[0], right: pair[1],
			})
		}
		// The last node is the root; parents follow their children, so
		// one backward pass assigns every depth.
		for idx := len(hs.nodes) - 1; idx >= n; idx-- {
			nd := &hs.nodes[idx]
			hs.nodes[nd.left].depth = nd.depth + 1
			hs.nodes[nd.right].depth = nd.depth + 1
		}
		maxDepth := int32(0)
		for _, leaf := range hs.nodes[:n] {
			maxDepth = max(maxDepth, leaf.depth)
		}
		if maxDepth <= huffMaxBits {
			for _, leaf := range hs.nodes[:n] {
				lengths[leaf.sym] = uint8(leaf.depth)
			}
			return
		}
		// Length overflow: dampen the weights and retry. Each round
		// halves the dynamic range, converging to equal weights
		// (a balanced tree) in the worst case.
		hs.nodes = hs.nodes[:n] // drop internal nodes
		for k := range hs.nodes {
			hs.nodes[k].weight = hs.nodes[k].weight/2 + 1
		}
	}
}

// sortLeaves returns the indexes of the leaves hs.nodes[:n] ordered by
// (weight, index): a stable LSD radix sort over the bytes of the
// weight, starting from index order. The number of passes follows the
// largest weight, which is not bounded by a page (Compress accepts
// inputs of any length).
func (hs *huffScratch) sortLeaves(n int) []int32 {
	if cap(hs.order) < n {
		hs.order = make([]int32, n)
		hs.tmp = make([]int32, n)
	}
	from, to := hs.order[:n], hs.tmp[:n]
	maxWeight := 0
	for k := range from {
		from[k] = int32(k)
		maxWeight = max(maxWeight, hs.nodes[k].weight)
	}
	for shift := uint(0); maxWeight>>shift != 0; shift += 8 {
		var next [256]int32
		for _, idx := range from {
			next[uint8(hs.nodes[idx].weight>>shift)]++
		}
		pos := int32(0)
		for d, cnt := range next {
			next[d] = pos
			pos += cnt
		}
		for _, idx := range from {
			d := uint8(hs.nodes[idx].weight >> shift)
			to[next[d]] = idx
			next[d]++
		}
		from, to = to, from
	}
	return from
}

// huffCanonicalTableInto assigns canonical codes from lengths into tab
// (len(tab) must equal len(lengths)) as code<<4 | length, so the
// encoder fetches both with one load. The codes are bit-reversed for
// LSB-first emission (like DEFLATE).
func huffCanonicalTableInto(tab []uint32, lengths []uint8) {
	var blCount [huffMaxBits + 1]int
	for _, l := range lengths {
		blCount[l]++
	}
	blCount[0] = 0
	var nextCode [huffMaxBits + 1]uint32
	code := uint32(0)
	for l := 1; l <= huffMaxBits; l++ {
		code = (code + uint32(blCount[l-1])) << 1
		nextCode[l] = code
	}
	for sym, l := range lengths {
		if l == 0 {
			tab[sym] = 0
			continue
		}
		tab[sym] = reverseBits(nextCode[l], uint(l))<<4 | uint32(l)
		nextCode[l]++
	}
}

// reverseBits reverses the low n bits of v (1 ≤ n ≤ 16).
func reverseBits(v uint32, n uint) uint32 {
	return uint32(bits.Reverse16(uint16(v)) >> (16 - n))
}

// huffTableBits is the width of the first-level decode table: codes up
// to 9 bits resolve with one peek + one lookup. DEFLATE-style litlen
// trees put all frequent symbols well inside 9 bits, so the canonical
// walk below survives only as the cold fallback for 10–15 bit codes.
const huffTableBits = 9

// huffDecoder decodes canonical codes emitted LSB-first: a multi-bit
// first-level lookup table resolves short codes in one step, and a
// canonical (count, syms) walk handles the over-long tail.
type huffDecoder struct {
	// count[l] = number of codes of length l; syms lists symbols in
	// canonical order.
	count [huffMaxBits + 1]int
	syms  []int
	// table maps the next huffTableBits input bits (LSB-first, i.e.
	// bit-reversed code prefixes) to an entry for codes of
	// ≤ huffTableBits bits:
	//
	//	sym<<16 | (codeLen+extra)<<8 | extra<<4 | codeLen
	//
	// where extra is the number of extra bits that follow the symbol's
	// code, so a caller that takes the whole field in one step does not
	// wait for a second table. A zero entry means "not decodable at
	// this level": fall back to the canonical walk. (codeLen is never 0
	// in a real entry, so 0 is unambiguous.)
	table [1 << huffTableBits]uint32
}

// init rebuilds the decoder from a code-length table and the alphabet's
// extra-bit counts (one per symbol), reusing the symbol buffer.
// Canonical order is (length, symbol): one counting pass gives each
// length its first slot, and a second pass in ascending symbol order
// drops every symbol into the next slot of its length — no sort, no
// allocation in the steady state.
func (d *huffDecoder) init(lengths, extra []uint8) {
	clear(d.count[:])
	for _, l := range lengths {
		d.count[l]++
	}
	d.count[0] = 0
	var next [huffMaxBits + 1]int
	n := 0
	for l := 1; l <= huffMaxBits; l++ {
		next[l] = n
		n += d.count[l]
	}
	if cap(d.syms) < n {
		d.syms = make([]int, n)
	}
	d.syms = d.syms[:n]
	for sym, l := range lengths {
		if l != 0 {
			d.syms[next[l]] = sym
			next[l]++
		}
	}
	d.buildTable(extra)
}

// buildTable fills the first-level table from the canonical (count,
// syms) form. Each ≤ huffTableBits code ends up at every table index
// whose low bits equal its bit-reversed pattern.
func (d *huffDecoder) buildTable(extra []uint8) {
	// Over-subscribed length tables (possible only on corrupt input)
	// break the canonical progression below: an overflowed code aliases
	// earlier table slots after bit reversal. Leave the table empty in
	// that case so every decode takes the bit-serial walk, which keeps
	// the accept/reject behavior of the pre-table decoder bit-for-bit.
	kraft := uint32(0)
	for l := 1; l <= huffMaxBits; l++ {
		kraft = kraft<<1 + uint32(d.count[l])
		if kraft > 1<<l {
			clear(d.table[:])
			return
		}
	}
	// The table grows one input bit at a time: table[:1<<l] is complete
	// for the codes of up to l bits, so doubling it replicates every
	// shorter code (and every hole, which reads zero) and each l-bit
	// code then costs a single store — the work follows the number of
	// codes, not the size of the table. Canonical codes count upwards
	// within a length and gain a low zero bit at the next one (the
	// recurrence of huffCanonicalTableInto); on the bit-reversed code
	// that is an increment from the top bit down, and nothing at all
	// between lengths.
	d.table[0] = 0
	rev := 0
	idx := 0
	for l := uint(1); l <= huffTableBits; l++ {
		half := 1 << (l - 1)
		copy(d.table[half:2*half], d.table[:half])
		for k := d.count[l]; k > 0; k-- {
			sym := d.syms[idx]
			x := uint32(extra[sym])
			d.table[rev] = uint32(sym)<<16 | (uint32(l)+x)<<8 | x<<4 | uint32(l)
			idx++
			bit := half
			for rev&bit != 0 {
				rev ^= bit
				bit >>= 1
			}
			rev |= bit
		}
	}
}

// decode reads one symbol from r. Returns -1 on corrupt input. The
// fast path is one peek + one table lookup; codes longer than
// huffTableBits fall back to the canonical walk.
func (d *huffDecoder) decode(r *bitReader) int {
	if e := d.table[r.peek(huffTableBits)]; e != 0 {
		if !r.consume(uint(e & 0x0f)) {
			// Table hit on end-of-stream zero padding: the code needs
			// more bits than the stream holds.
			return -1
		}
		return int(e >> 16)
	}
	return d.decodeSlow(r)
}

// decodeSlow is the canonical walk for codes longer than huffTableBits
// (and the no-table corner cases): the code grows one bit per step, as
// a bit-serial reader would grow it, but from a single peek — the next
// huffMaxBits input bits turned MSB-first, zero-padded at the end of
// the stream. A code that needs more bits than the stream holds fails
// in consume.
func (d *huffDecoder) decodeSlow(r *bitReader) int {
	window := int(bits.Reverse16(uint16(r.peek(huffMaxBits))) >> (16 - huffMaxBits))
	first := 0
	index := 0
	for l := uint(1); l <= huffMaxBits; l++ {
		code := window >> (huffMaxBits - l)
		count := d.count[l]
		if code-first < count {
			if !r.consume(l) {
				return -1
			}
			return d.syms[index+code-first]
		}
		index += count
		first = (first + count) << 1
	}
	return -1
}
