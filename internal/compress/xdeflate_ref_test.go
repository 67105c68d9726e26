package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xfm/internal/corpus"
)

// Tests for the seams of the round-2 xdeflate kernels (fused probe,
// insertRange, radix leaf sort, decoder fast loop), all against the
// frozen reference in compat_ref_test.go.

// TestXDeflateMatchesRefOnCorpus compares whole streams with the
// reference encoder on every corpus generator, at every window the
// experiments use, lazy and greedy.
func TestXDeflateMatchesRefOnCorpus(t *testing.T) {
	for _, name := range corpus.Names() {
		pages := mixedCorpusPages(t, name)[:64]
		for _, window := range []int{32768, 2048, 1024} {
			for _, lazy := range []bool{true, false} {
				nw := &XDeflate{window: window, lazy: lazy}
				ref := &refXDeflate{window: window, lazy: lazy}
				var got, want []byte
				for i, p := range pages {
					got = nw.Compress(got[:0], p)
					want = ref.Compress(want[:0], p)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s page %d window %d lazy %v: stream diverged: new %d bytes, reference %d bytes",
							name, i, window, lazy, len(got), len(want))
					}
				}
			}
		}
	}
}

// parseEdgeInputs are the inputs that sit on the edges of probe and
// insertRange.
func parseEdgeInputs() map[string][]byte {
	in := map[string][]byte{}
	// 0–11 bytes: around the 3-byte hash, the 4-byte load and the
	// 8-byte compare.
	for n := 0; n <= 11; n++ {
		in[fmt.Sprintf("same-%d", n)] = bytes.Repeat([]byte{'a'}, n)
		in[fmt.Sprintf("period3-%d", n)] = bytes.Repeat([]byte("abc"), 4)[:n]
		in[fmt.Sprintf("distinct-%d", n)] = []byte("0123456789ab")[:n]
	}
	// A match that runs to the last byte, at every tail length mod 8.
	for tail := 3; tail <= 20; tail++ {
		head := []byte("the quick brown fox jumps over the lazy dog")
		in[fmt.Sprintf("to-end-%d", tail)] = append(append([]byte(nil), head...), head[5:5+tail]...)
	}
	// The last two positions have no 3-byte hash: end on a repeat that
	// would match there if they had.
	in["tail-no-hash"] = []byte("xyzxyzxyzxy")
	in["tail-pair"] = []byte("abcdefab")
	// A 258-byte match (never deferred itself) directly followed by a
	// position where the lazy rule defers: "abcd" matches at i, the
	// longer "bcdefgh" at i+1.
	long := corpus.Random(9, 258)
	in["max-then-lazy"] = bytes.Join([][]byte{[]byte("abcd--bcdefgh--"), long, {'#'}, long, []byte("abcdefgh")}, nil)
	in["max-run"] = bytes.Repeat([]byte{7}, 258*3+5)
	// floor ≥ remaining length: the match found at i leaves no room at
	// i+1 for a longer one (fewer bytes than bestLen, or exactly
	// bestLen).
	in["floor-past-end"] = []byte("abcdeabcde")
	in["floor-near-end"] = []byte("0abcd1abcd")
	in["floor-eq-rem"] = []byte("abcdXabcdY")
	in["lazy-wins"] = []byte("abc_bcdef_abcdef")
	in["lazy-ties"] = []byte("abc_bcd_abcd")
	return in
}

// TestParseEdgesMatchReference compares the parse token for token with
// the reference parser on the edge inputs, lazy and greedy, with a wide
// and a narrow window.
func TestParseEdgesMatchReference(t *testing.T) {
	for name, in := range parseEdgeInputs() {
		for _, window := range []int{32768, 4} {
			for _, lazy := range []bool{true, false} {
				got := lz77Parse(in, window, lazy)
				var ref refLZ77Encoder
				want := ref.parse(in, window, lazy)
				if len(got) != len(want) {
					t.Fatalf("%s window %d lazy %v: %d tokens, reference %d", name, window, lazy, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s window %d lazy %v: token %d = %+v, reference %+v", name, window, lazy, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// refSortLeaves is the leaf order the Huffman construction had before
// the radix sort: slices.Sort over (weight<<20 | index) keys.
func refSortLeaves(weights []int) []int32 {
	keys := make([]int64, len(weights))
	for k, w := range weights {
		keys[k] = int64(w)<<20 | int64(k)
	}
	slices.Sort(keys)
	order := make([]int32, len(keys))
	for k, key := range keys {
		order[k] = int32(key & (1<<20 - 1))
	}
	return order
}

// refHuffBuildLengths is the pre-radix Huffman construction, frozen:
// sorted keys, closure-driven two-queue merge, stack-walked depths. The
// reference encoder in compat_ref_test.go calls the live
// huffBuildLengths, so this copy is what pins the code lengths.
func refHuffBuildLengths(freq []int) []uint8 {
	type node struct {
		weight      int
		sym         int
		left, right int32
	}
	lengths := make([]uint8, len(freq))
	var nodes []node
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, node{weight: f, sym: s, left: -1, right: -1})
		}
	}
	n := len(nodes)
	switch n {
	case 0:
		return lengths
	case 1:
		lengths[nodes[0].sym] = 1
		return lengths
	}
	for {
		weights := make([]int, n)
		for k := range weights {
			weights[k] = nodes[k].weight
		}
		leaves := refSortLeaves(weights)
		var internal []int32
		li, ii := 0, 0
		pop := func() int32 {
			if li >= len(leaves) {
				ii++
				return internal[ii-1]
			}
			if ii >= len(internal) || nodes[leaves[li]].weight <= nodes[internal[ii]].weight {
				li++
				return leaves[li-1]
			}
			ii++
			return internal[ii-1]
		}
		for total := n; total > 1; total-- {
			a := pop()
			b := pop()
			nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, sym: -1, left: a, right: b})
			internal = append(internal, int32(len(nodes)-1))
		}
		type item struct{ idx, depth int32 }
		maxDepth := int32(0)
		stack := []item{{pop(), 0}}
		for len(stack) > 0 {
			it := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nd := nodes[it.idx]
			if nd.sym >= 0 {
				lengths[nd.sym] = uint8(it.depth)
				maxDepth = max(maxDepth, it.depth)
				continue
			}
			stack = append(stack, item{nd.left, it.depth + 1}, item{nd.right, it.depth + 1})
		}
		if maxDepth <= huffMaxBits {
			return lengths
		}
		nodes = nodes[:n]
		for k := range nodes {
			nodes[k].weight = nodes[k].weight/2 + 1
		}
		clear(lengths)
	}
}

// randomFreqTable draws a frequency table in one of the shapes that
// stress the leaf sort and the length limit: page-sized counts, counts
// with many ties, weights past 2¹⁶ and 2²⁴ (inputs longer than a page),
// and geometric weights that force over-deep trees.
func randomFreqTable(rng *rand.Rand) []int {
	freq := make([]int, 2+rng.Intn(xdLitLenSyms-1))
	shape := rng.Intn(5)
	for s := range freq {
		if rng.Intn(4) == 0 {
			continue
		}
		switch shape {
		case 0:
			freq[s] = rng.Intn(4096)
		case 1:
			freq[s] = 1 + rng.Intn(3)
		case 2:
			freq[s] = rng.Intn(1 << 18)
		case 3:
			freq[s] = rng.Intn(1<<26) << uint(rng.Intn(3)*8)
		case 4:
			freq[s] = 1 << uint(rng.Intn(30))
		}
	}
	return freq
}

// TestRadixLeafSortMatchesSlicesSort: same total order as the sort it
// replaced, for any weight, and therefore the same code lengths.
func TestRadixLeafSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var hs huffScratch
	wide := 0
	for trial := 0; trial < 1000; trial++ {
		freq := randomFreqTable(rng)
		hs.nodes = hs.nodes[:0]
		var weights []int
		for s, f := range freq {
			if f > 0 {
				hs.nodes = append(hs.nodes, huffNode{weight: f, sym: int32(s)})
				weights = append(weights, f)
				if f >= 1<<16 {
					wide++
				}
			}
		}
		if got, want := hs.sortLeaves(len(hs.nodes)), refSortLeaves(weights); !slices.Equal(got, want) {
			t.Fatalf("trial %d: leaf order %v, slices.Sort order %v (weights %v)", trial, got, want, weights)
		}
		if got, want := huffBuildLengths(freq), refHuffBuildLengths(freq); !slices.Equal(got, want) {
			t.Fatalf("trial %d: code lengths %v, reference %v (freq %v)", trial, got, want, freq)
		}
	}
	if wide == 0 {
		t.Fatal("no weight ≥ 2¹⁶ was drawn: the multi-pass case went untested")
	}
}

// craftedStream is a hand-assembled huffman block: the tokens go out
// exactly as given (no parse), so a test can put a long code, a match
// or the end of the output wherever it wants.
type craftedStream struct {
	stream   []byte // whole xdeflate stream
	bodyOff  int    // offset of the bit-packed symbol stream in stream
	litLens  []uint8
	distLens []uint8
	plain    []byte // what the tokens decode to
}

func craftStream(t *testing.T, tokens []lzToken) craftedStream {
	t.Helper()
	litFreq := make([]int, xdLitLenSyms)
	distFreq := make([]int, xdDistSyms)
	var plain []byte
	for _, tok := range tokens {
		if tok.length == 0 {
			litFreq[tok.lit]++
			plain = append(plain, tok.lit)
			continue
		}
		litFreq[257+refLengthCode(int(tok.length))]++
		distFreq[refDistCode(int(tok.dist))]++
		start := len(plain) - int(tok.dist)
		if start < 0 {
			t.Fatalf("crafted match reaches before the output: dist %d at %d", tok.dist, len(plain))
		}
		for k := 0; k < int(tok.length); k++ {
			plain = append(plain, plain[start+k])
		}
	}
	litFreq[xdEOB]++
	c := craftedStream{plain: plain, litLens: refHuffBuildLengths(litFreq), distLens: refHuffBuildLengths(distFreq)}
	litCodes := huffCanonicalCodes(c.litLens)
	distCodes := huffCanonicalCodes(c.distLens)
	maxLit, maxDist := maxUsedSym(c.litLens), maxUsedSym(c.distLens)
	out := appendUvarint(nil, uint64(len(plain)))
	out = append(out, 1, byte(maxLit), byte(maxLit>>8))
	out = packNibbles(out, c.litLens[:maxLit+1])
	out = append(out, byte(maxDist))
	if maxDist >= 0 {
		out = packNibbles(out, c.distLens[:maxDist+1])
	}
	c.bodyOff = len(out)
	w := refBitWriter{buf: out}
	for _, tok := range tokens {
		if tok.length == 0 {
			w.writeBits(litCodes[tok.lit], uint(c.litLens[tok.lit]))
			continue
		}
		lc := refLengthCode(int(tok.length))
		w.writeBits(litCodes[257+lc], uint(c.litLens[257+lc]))
		w.writeBits(uint32(int(tok.length)-lengthBase[lc]), lengthExtra[lc])
		dc := refDistCode(int(tok.dist))
		w.writeBits(distCodes[dc], uint(c.distLens[dc]))
		w.writeBits(uint32(int(tok.dist)-distBase[dc]), distExtra[dc])
	}
	w.writeBits(litCodes[xdEOB], uint(c.litLens[xdEOB]))
	c.stream = w.flush()
	return c
}

// skewedLiterals returns literal tokens with power-of-two symbol counts
// (1, 2, 4, … 4096): the tree is one long chain, so the rare symbols
// carry codes longer than the 9-bit first-level table. The rare ones
// come first when rareFirst, last otherwise; the bulk is the common
// symbols, shuffled.
func skewedLiterals(rareFirst bool) (tokens []lzToken, rare []byte) {
	var head, bulk []lzToken
	for s := 0; s <= 12; s++ {
		sym := byte('a' + s)
		to := &bulk
		if s <= 3 {
			rare = append(rare, sym)
			to = &head
		}
		for k := 0; k < 1<<s; k++ {
			*to = append(*to, lzToken{lit: sym})
		}
	}
	rand.New(rand.NewSource(21)).Shuffle(len(bulk), func(i, j int) { bulk[i], bulk[j] = bulk[j], bulk[i] })
	if rareFirst {
		return append(head, bulk...), rare
	}
	return append(bulk, head...), rare
}

func literalTokens(s string) []lzToken {
	tokens := make([]lzToken, len(s))
	for i := range s {
		tokens[i] = lzToken{lit: s[i]}
	}
	return tokens
}

// handOffStreams are streams built around the seam between the
// decoder's fast loop and its careful path. The fast loop runs while
// at least xdFastOutSlack bytes of output remain.
func handOffStreams(t *testing.T) map[string]craftedStream {
	filler := func(n int) []lzToken {
		return literalTokens(strings.Repeat("0123456789abcdef", n/16+1)[:n])
	}
	join := func(parts ...[]lzToken) []lzToken { return slices.Concat(parts...) }
	// Bytes after end-of-block are ignored by both decoders; padding a
	// stream keeps 8 input bytes available to the refill, so it is the
	// output bound, not the input bound, that ends the fast loop.
	padded := func(tokens []lzToken) craftedStream {
		c := craftStream(t, tokens)
		c.stream = append(c.stream, make([]byte, 16)...)
		return c
	}
	long := lzToken{length: lz77MaxMatch, dist: 300}
	streams := map[string]craftedStream{}
	rareFirst, _ := skewedLiterals(true)
	rareLast, _ := skewedLiterals(false)
	// The only > 9-bit codes sit at the very start, deep inside the
	// fast region, and at the very end, inside the careful tail.
	streams["long-codes-in-fast-region"] = craftStream(t, rareFirst)
	streams["long-codes-in-careful-tail"] = craftStream(t, rareLast)
	// A maximal word-copied match around the end of the fast region:
	// ending exactly at want (careful path), and as the second token
	// of the last fast iteration with 5–8 bytes behind it, where the
	// wildcopy's overshoot just fits, or does not and the careful path
	// must take it.
	for _, lits := range []int{600, 601} {
		for _, tail := range []int{0, 5, 6, 7, 8} {
			streams[fmt.Sprintf("long-match-after-%d-before-%d", lits, tail)] =
				padded(join(filler(lits), []lzToken{long}, filler(tail)))
		}
	}
	// RLE matches (dist < 8) that start in the fast region and end in
	// the careful one, at the last fast position and one past it.
	for _, dist := range []uint16{1, 3, 7} {
		for _, before := range []int{xdFastOutSlack, xdFastOutSlack + 1} {
			rle := lzToken{length: 200, dist: dist}
			streams[fmt.Sprintf("rle-dist%d-crosses-%d", dist, before)] =
				padded(join(filler(400), []lzToken{rle}, filler(before-200)))
		}
	}
	// Tokens alternate fast and careful all the way: a literal-match
	// mix whose every match lands on or next to the boundary.
	streams["match-each-side-of-boundary"] = padded(
		join(filler(300), []lzToken{{length: 9, dist: 8}}, filler(xdFastOutSlack-10), []lzToken{{length: 10, dist: 7}}))
	return streams
}

// TestDecoderHandOff decodes every hand-off stream with the new and the
// reference decoder, and every proper prefix of each: same bytes on
// accept, an error and an untouched dst on reject.
func TestDecoderHandOff(t *testing.T) {
	nw, ref := NewXDeflate(), newRefXDeflate()
	for name, c := range handOffStreams(t) {
		prefix := []byte("dst-prefix")
		got, err := nw.Decompress(append([]byte(nil), prefix...), c.stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], c.plain) {
			t.Fatalf("%s: decoded %d bytes, differ from the %d crafted", name, len(got)-len(prefix), len(c.plain))
		}
		if want, err := ref.Decompress(nil, c.stream); err != nil || !bytes.Equal(want, c.plain) {
			t.Fatalf("%s: reference decoder disagrees with the crafted plain text: %v", name, err)
		}
		for cut := 0; cut < len(c.stream); cut++ {
			dst := append(make([]byte, 0, 64), prefix...)
			got, err := nw.Decompress(dst, c.stream[:cut:cut])
			_, refErr := ref.Decompress(nil, c.stream[:cut:cut])
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: prefix [0:%d): new err=%v, reference err=%v", name, cut, err, refErr)
			}
			if err == nil {
				continue
			}
			if err != ErrCorrupt || !bytes.Equal(got, prefix) {
				t.Fatalf("%s: prefix [0:%d): err=%v with %d bytes of dst, want ErrCorrupt and the %d given",
					name, cut, err, len(got), len(prefix))
			}
		}
	}
}

// TestDecodeFastStopsInFrontOfWhatItCannotTake drives the fast loop
// alone: it must take exactly the tokens that are its to take and leave
// the reader in front of the next one.
func TestDecodeFastStopsInFrontOfWhatItCannotTake(t *testing.T) {
	tokens, rare := skewedLiterals(true)
	c := craftStream(t, tokens)
	for _, sym := range rare {
		if c.litLens[sym] <= huffTableBits {
			t.Fatalf("symbol %q has a %d-bit code: the crafted tree is not deep enough", sym, c.litLens[sym])
		}
	}
	var st xdDecState
	st.litDec.init(c.litLens)
	st.distDec.init(c.distLens)
	out := make([]byte, len(c.plain))
	r := bitReader{src: c.stream[c.bodyOff:]}
	// The very first token has a long code: nothing is taken.
	if o := st.decodeFast(&r, out, 0, 0); o != 0 {
		t.Fatalf("fast loop took %d bytes in front of a long code", o)
	}
	// The careful path takes the long codes one at a time; after the
	// last of them the fast loop runs to the edge of its region.
	o := 0
	for ; bytes.IndexByte(rare, c.plain[o]) >= 0; o++ {
		if o > 0 && st.decodeFast(&r, out, o, 0) != o {
			t.Fatalf("fast loop took a long code at %d", o)
		}
		sym := st.litDec.decode(&r)
		if sym != int(c.plain[o]) {
			t.Fatalf("careful decode at %d: %d, want %d", o, sym, c.plain[o])
		}
		out[o] = byte(sym)
	}
	o = st.decodeFast(&r, out, o, 0)
	if limit := len(out) - xdFastOutSlack; o <= limit || o > limit+2 {
		t.Fatalf("fast loop stopped at %d, want just past its limit %d", o, limit)
	}
	if !bytes.Equal(out[:o], c.plain[:o]) {
		t.Fatal("fast loop output differs from the crafted plain text")
	}
	if sym := st.litDec.decode(&r); sym != int(c.plain[o]) {
		t.Fatalf("reader is not in front of token %d after the fast loop: decoded %d, want %d", o, sym, c.plain[o])
	}

	// An over-subscribed length set leaves the first-level table empty
	// (the Kraft guard): the fast loop must take nothing at all.
	over := make([]uint8, xdLitLenSyms)
	for s := 0; s < 8; s++ {
		over[s] = 2
	}
	st.litDec.init(over)
	r = bitReader{src: bytes.Repeat([]byte{0x1b}, 64)}
	if o := st.decodeFast(&r, make([]byte, 4096), 0, 0); o != 0 || r.nacc > 63 {
		t.Fatalf("fast loop took %d bytes through an empty table", o)
	}
}

// packNibbles is the allocating convenience form the reference encoders use.
func packNibbles(dst []byte, lens []uint8) []byte {
	var st xdEncState
	return st.packNibbles(dst, lens)
}
