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
	// A literal run strides: random runs whose lengths cover several
	// stride phases, so the last stride overshoots the end of the input
	// by every amount it can.
	for n := 200; n < 264; n++ {
		in[fmt.Sprintf("run-to-end-%d", n)] = corpus.Random(int64(n), n)
	}
	// A repeat straight after a long run, then a second run and a second
	// repeat: the match must reset the stride, or the second run's
	// probes land elsewhere and find the second repeat at another offset.
	run := corpus.Random(10, 300)
	in["run-repeat-run-repeat"] = bytes.Join([][]byte{run, run[:40], corpus.Random(11, 90), run[100:160]}, nil)
	// A match found at a strided probe and deferred by its lazy probe:
	// "abcd" matches at the probe, the longer "bcdefghij" one position
	// on. Run lengths over a whole stride phase put a probe on the "a".
	for n := 128; n < 144; n++ {
		in[fmt.Sprintf("stride-then-lazy-%d", n)] = bytes.Join([][]byte{
			[]byte("abcd--bcdefghij--"), corpus.Random(int64(n), n), []byte("abcdefghij"),
		}, nil)
	}
	return in
}

// TestParseEdgesMatchReference compares the parse token for token with
// the reference parser on the edge inputs, lazy and greedy, with a wide
// and a narrow window.
func TestParseEdgesMatchReference(t *testing.T) {
	deferred := 0
	for name, in := range parseEdgeInputs() {
		for _, window := range []int{32768, 4} {
			for _, lazy := range []bool{true, false} {
				got := lz77Parse(in, window, lazy)
				var ref refLZ77Encoder
				want := ref.parse(in, window, lazy)
				if strings.HasPrefix(name, "stride-then-lazy-") && lazy && window > 4 {
					// The tail's "a" as a literal, then one match for the
					// rest: the lazy probe won.
					if k := len(want) - 2; want[k] == (lzToken{lit: 'a'}) && want[k+1].length == 9 {
						deferred++
					}
				}
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
	if deferred == 0 {
		t.Fatal("no stride-then-lazy input put a strided probe on the \"a\": the lazy probe after a stride went untested")
	}
}

// TestXDeflateBytesWithinBudget holds the parse to DESIGN §8's size
// budget: the mean stream over the mixed corpus (16 generators × 256
// pages, seed 1) stays within 1 % of the 1 638.3 bytes/page of a parse
// that walks 32 candidates at every position.
func TestXDeflateBytesWithinBudget(t *testing.T) {
	const budget = 1654.7
	x := NewXDeflate()
	var dst []byte
	total, pages := 0, 0
	for _, name := range corpus.Names() {
		for _, p := range mixedCorpusPages(t, name) {
			dst = x.Compress(dst[:0], p)
			total += len(dst)
			pages++
		}
	}
	if mean := float64(total) / float64(pages); mean > budget {
		t.Fatalf("mixed corpus: %.2f bytes/page, budget %.1f", mean, budget)
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
	corrupt  bool   // a match reaches before the output: no plain text
}

func craftStream(t *testing.T, tokens []lzToken) craftedStream {
	t.Helper()
	litFreq := make([]int, xdLitLenSyms)
	distFreq := make([]int, xdDistSyms)
	var plain []byte
	corrupt := false
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
			// A match that reaches before the output: a stream both
			// decoders must reject. The text only sizes the header.
			corrupt = true
			plain = append(plain, make([]byte, tok.length)...)
			continue
		}
		for k := 0; k < int(tok.length); k++ {
			plain = append(plain, plain[start+k])
		}
	}
	litFreq[xdEOB]++
	c := craftedStream{plain: plain, corrupt: corrupt, litLens: refHuffBuildLengths(litFreq), distLens: refHuffBuildLengths(distFreq)}
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

// fibonacciLiterals returns literal tokens whose symbol counts are the
// Fibonacci numbers 1, 2, 3, 5, … 233 (end-of-block supplies the other
// 1): the smallest input whose Huffman tree is one long chain, so the
// three rarest symbols carry codes longer than the 9-bit first-level
// table in a stream of a few hundred bytes. The common symbols come back
// shuffled, the six tokens of the rare ones separately.
func fibonacciLiterals() (bulk, rare []lzToken) {
	a, b := 1, 2
	for s := 0; s < 12; s++ {
		to := &bulk
		if s < 3 {
			to = &rare
		}
		for k := 0; k < a; k++ {
			*to = append(*to, lzToken{lit: byte('a' + s)})
		}
		a, b = b, a+b
	}
	rand.New(rand.NewSource(22)).Shuffle(len(bulk), func(i, j int) { bulk[i], bulk[j] = bulk[j], bulk[i] })
	return bulk, rare
}

// handOffStreams are streams built around the seam between the
// decoder's fast loop and its careful path. The fast loop takes a token
// while out has room for it: two bytes for literals, the match plus 16
// bytes of copy overshoot for a match.
func handOffStreams(t *testing.T) map[string]craftedStream {
	filler := func(n int) []lzToken {
		return literalTokens(strings.Repeat("0123456789abcdef", n/16+1)[:n])
	}
	join := func(parts ...[]lzToken) []lzToken { return slices.Concat(parts...) }
	// Bytes after end-of-block are ignored by both decoders; padding a
	// stream keeps 8 input bytes available to the refill, so it is the
	// output bound, not the input bound, that ends the fast loop. Every
	// proper prefix of a padded stream is decoded too, the unpadded
	// stream among them.
	padded := func(tokens []lzToken) craftedStream {
		c := craftStream(t, tokens)
		c.stream = append(c.stream, make([]byte, 16)...)
		return c
	}
	streams := map[string]craftedStream{}
	rareFirst, _ := skewedLiterals(true)
	rareLast, _ := skewedLiterals(false)
	// The only > 9-bit codes sit at the very start, and at the very end
	// where the input bound has already stopped the fast loop.
	streams["long-codes-first"] = craftStream(t, rareFirst)
	streams["long-codes-last"] = craftStream(t, rareLast)
	// Everything the fast loop can meet at the end of the output lands
	// at want−k, k = 0…20, on either side of every room test: a maximal
	// word-copied match, RLE matches (dist < 8), and a run of > 9-bit
	// codes — each as the first and as the second token of an
	// iteration (an even or odd number of literals in front).
	bulk, rare := fibonacciLiterals()
	step := 1
	if raceEnabled {
		step = 4 // ≈ 15× slower, and nothing here is concurrent
	}
	for k := 0; k <= 20; k += step {
		for odd := 0; odd <= 1; odd++ {
			streams[fmt.Sprintf("long-match-%d-before-%d", odd, k)] =
				padded(join(filler(600+odd), []lzToken{{length: lz77MaxMatch, dist: 300}}, filler(k)))
			for _, dist := range []uint16{1, 3, 7} {
				streams[fmt.Sprintf("rle-dist%d-%d-before-%d", dist, odd, k)] =
					padded(join(filler(40+odd), []lzToken{{length: 200, dist: dist}}, filler(k)))
			}
			c := padded(join(literalTokens("l")[:odd], bulk[k:], rare, bulk[:k]))
			for _, tok := range rare {
				if c.litLens[tok.lit] <= huffTableBits {
					t.Fatalf("symbol %q has a %d-bit code: the crafted tree is not deep enough", tok.lit, c.litLens[tok.lit])
				}
			}
			streams[fmt.Sprintf("long-codes-%d-before-%d", odd, k)] = c
		}
	}
	// A match that reaches one byte before the output, with room on
	// every side for the fast loop to take it: with a dst prefix in
	// front the byte exists, but it is not the stream's to copy.
	for odd := 0; odd <= 1; odd++ {
		streams[fmt.Sprintf("match-before-base-%d", odd)] =
			padded(join(filler(20+odd), []lzToken{{length: 10, dist: uint16(21 + odd)}}, filler(40)))
	}
	// Short matches back to back up to the last byte: each one is a
	// fresh room test, and the last few must be declined.
	short := []lzToken{{length: 9, dist: 8}, {length: 3, dist: 7}, {length: 10, dist: 40}}
	streams["short-matches-to-the-end"] = padded(join(filler(300), short, short, short, short))
	return streams
}

// TestDecoderHandOff decodes every hand-off stream with the new and the
// reference decoder, and every proper prefix of each: same bytes on
// accept, an error and an untouched dst on reject — and never a byte
// outside out[base:want] either way.
func TestDecoderHandOff(t *testing.T) {
	nw, ref := NewXDeflate(), newRefXDeflate()
	prefix := []byte("dst-prefix")
	for name, c := range handOffStreams(t) {
		got, err := decodeInCanary(t, nw, prefix, c.stream)
		want, refErr := ref.Decompress(nil, c.stream)
		if c.corrupt {
			if err != ErrCorrupt || refErr == nil || !bytes.Equal(got, prefix) {
				t.Fatalf("%s: new err=%v with %d bytes of dst, reference err=%v: both must reject", name, err, len(got), refErr)
			}
		} else {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], c.plain) {
				t.Fatalf("%s: decoded %d bytes, differ from the %d crafted", name, len(got)-len(prefix), len(c.plain))
			}
			if refErr != nil || !bytes.Equal(want, c.plain) {
				t.Fatalf("%s: reference decoder disagrees with the crafted plain text: %v", name, refErr)
			}
		}
		for cut := 0; cut < len(c.stream); cut++ {
			got, err := decodeInCanary(t, nw, prefix, c.stream[:cut:cut])
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
	st.litDec.init(c.litLens, xdLitExtra[:])
	st.distDec.init(c.distLens, xdDistExtra[:])
	out := make([]byte, len(c.plain))
	// Padding after end-of-block keeps the refill fed, so that it is the
	// output bound that ends the fast loop.
	body := append(append([]byte(nil), c.stream[c.bodyOff:]...), make([]byte, 16)...)
	r := bitReader{src: body}
	// The very first token has a long code: nothing is taken.
	if o := st.decodeFast(&r, out, 0, 0); o != 0 {
		t.Fatalf("fast loop took %d bytes in front of a long code", o)
	}
	// The careful path takes the long codes one at a time; after the
	// last of them the fast loop runs until out has no room for two
	// more literals.
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
	rest, restAt := r, o
	o = st.decodeFast(&r, out, o, 0)
	if o < len(out)-1 {
		t.Fatalf("fast loop stopped at %d with room for two literals (%d bytes of output)", o, len(out))
	}
	if !bytes.Equal(out[:o], c.plain[:o]) {
		t.Fatal("fast loop output differs from the crafted plain text")
	}
	next := xdEOB
	if o < len(out) {
		next = int(c.plain[o])
	}
	if sym := st.litDec.decode(&r); sym != next {
		t.Fatalf("reader is not in front of token %d after the fast loop: decoded %d, want %d", o, sym, next)
	}
	// Without the padding it is the input that runs out first: the loop
	// stops with fewer than 8 bytes left to refill from.
	rest.src = rest.src[:len(rest.src)-16]
	if o := st.decodeFast(&rest, out, restAt, 0); len(rest.src)-rest.pos >= 8 || o >= len(out)-1 {
		t.Fatalf("fast loop stopped at %d of %d with %d input bytes unread, want it to stop for lack of input",
			o, len(out), len(rest.src)-rest.pos)
	}

	// The output bound, token by token. With input to spare (padding
	// after end-of-block) a run of literals stops with less than two
	// bytes of room, and resumes nowhere.
	lits := craftStream(t, literalTokens(strings.Repeat("0123456789abcdef", 8)))
	litsBody := append(append([]byte(nil), lits.stream[lits.bodyOff:]...), make([]byte, 16)...)
	body = litsBody
	st.litDec.init(lits.litLens, xdLitExtra[:])
	st.distDec.init(lits.distLens, xdDistExtra[:])
	for room := 0; room <= 5; room++ {
		out := make([]byte, room)
		r = bitReader{src: body}
		if o := st.decodeFast(&r, out, 0, 0); o != room&^1 || !bytes.Equal(out[:o], lits.plain[:o]) {
			t.Fatalf("fast loop wrote %d literals into %d bytes of room, want %d", o, room, room&^1)
		}
	}
	// A match is taken when it fits with its copy's 15 bytes of overshoot
	// and one to spare, and declined — reader in front of its length
	// code — one byte short of that.
	const lead, length = 16, 20
	m := craftStream(t, slices.Concat(literalTokens("0123456789abcdef"), []lzToken{{length: length, dist: 12}}))
	body = append(append([]byte(nil), m.stream[m.bodyOff:]...), make([]byte, 16)...)
	st.litDec.init(m.litLens, xdLitExtra[:])
	st.distDec.init(m.distLens, xdDistExtra[:])
	for _, room := range []int{lead + length + 16, lead + length + 15, lead + length} {
		out := make([]byte, room)
		r = bitReader{src: body}
		o := st.decodeFast(&r, out, 0, 0)
		want := lead
		if room >= lead+length+16 {
			want = lead + length
		}
		if o != want || !bytes.Equal(out[:o], m.plain[:o]) {
			t.Fatalf("fast loop stopped at %d with %d bytes of room for a %d-byte match after %d literals, want %d",
				o, room, length, lead, want)
		}
		if o == lead {
			if sym := st.litDec.decode(&r); sym != 257+refLengthCode(length) {
				t.Fatalf("reader is not in front of the declined match: decoded %d", sym)
			}
		}
	}

	// An over-subscribed length set leaves the first-level table empty
	// (the Kraft guard): the fast loop must take nothing at all.
	// The table it replaces is one the input decodes through.
	over := make([]uint8, xdLitLenSyms)
	for s := 0; s < 8; s++ {
		over[s] = 2
	}
	st.litDec.init(lits.litLens, xdLitExtra[:])
	st.litDec.init(over, xdLitExtra[:])
	r = bitReader{src: litsBody}
	if o := st.decodeFast(&r, make([]byte, 4096), 0, 0); o != 0 || r.nacc > 63 {
		t.Fatalf("fast loop took %d bytes through an empty table", o)
	}
}

// packNibbles is the allocating convenience form the reference encoders use.
func packNibbles(dst []byte, lens []uint8) []byte {
	var st xdEncState
	return st.packNibbles(dst, lens)
}
