package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xfm/internal/corpus"
)

// testInputs covers the structural cases LZ codecs must handle:
// empty, tiny, runs, periodic, text-like, and random data.
func testInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 8192)
	rng.Read(random)
	lowEntropy := make([]byte, 8192)
	for i := range lowEntropy {
		lowEntropy[i] = byte(rng.Intn(4))
	}
	periodic := make([]byte, 5000)
	for i := range periodic {
		periodic[i] = byte(i % 7)
	}
	return map[string][]byte{
		"empty":      {},
		"one":        {0x41},
		"two":        {0x41, 0x42},
		"three-same": {7, 7, 7},
		"short":      []byte("abcdefg"),
		"run":        bytes.Repeat([]byte{0xAA}, 4096),
		"runs-mixed": append(bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, 300)...),
		"periodic":   periodic,
		"text": []byte(strings.Repeat(
			"the quick brown fox jumps over the lazy dog. ", 100)),
		"random":      random,
		"low-entropy": lowEntropy,
		"overlap":     []byte("abcabcabcabcabcabcabcabcabcabcabc"),
		"page4k":      bytes.Repeat([]byte("key=value;count=123;flag=true;\n"), 140)[:4096],

		// Whole corpora, 64 KiB in one call: match offsets far beyond
		// one page, through both decoders' fast loops.
		"corpus-text-english-64k": corpus.EnglishText(1, 64<<10),
		"corpus-dna-64k":          corpus.DNA(1, 64<<10),
	}
}

func allCodecs() []Codec {
	return []Codec{
		NewLZFast(),
		NewLZFastWindow(1024),
		NewXDeflate(),
		NewXDeflateWindow(1024),
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, c := range allCodecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for name, in := range testInputs() {
				comp := c.Compress(nil, in)
				if len(comp) > c.MaxCompressedLen(len(in)) {
					t.Errorf("%s: compressed %d > MaxCompressedLen %d",
						name, len(comp), c.MaxCompressedLen(len(in)))
				}
				out, err := c.Decompress(nil, comp)
				if err != nil {
					t.Fatalf("%s: decompress: %v", name, err)
				}
				if !bytes.Equal(out, in) {
					t.Fatalf("%s: round trip mismatch: got %d bytes, want %d",
						name, len(out), len(in))
				}
			}
		})
	}
}

func TestRoundTripAppendsToDst(t *testing.T) {
	c := NewLZFast()
	prefix := []byte("prefix")
	in := []byte("hello hello hello hello")
	comp := c.Compress(append([]byte(nil), prefix...), in)
	if !bytes.HasPrefix(comp, prefix) {
		t.Fatal("Compress did not append to dst")
	}
	out, err := c.Decompress(append([]byte(nil), prefix...), comp[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, append(prefix, in...)) {
		t.Fatal("Decompress did not append to dst")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	for _, c := range []Codec{NewLZFast(), NewXDeflate()} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(in []byte) bool {
				comp := c.Compress(nil, in)
				out, err := c.Decompress(nil, comp)
				return err == nil && bytes.Equal(out, in)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyRoundTripStructured feeds inputs with heavy repetition,
// the regime where match-copy bugs (overlapping copies, offset
// boundaries) live.
func TestPropertyRoundTripStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []Codec{NewLZFast(), NewXDeflate(), NewLZFastWindow(64), NewXDeflateWindow(64)} {
		for trial := 0; trial < 200; trial++ {
			var in []byte
			for len(in) < 2000 {
				switch rng.Intn(3) {
				case 0: // random run
					in = append(in, bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(50)+1)...)
				case 1: // copy from earlier
					if len(in) > 4 {
						start := rng.Intn(len(in))
						n := rng.Intn(len(in)-start) + 1
						in = append(in, in[start:start+n]...)
					}
				case 2: // random bytes
					chunk := make([]byte, rng.Intn(30)+1)
					rng.Read(chunk)
					in = append(in, chunk...)
				}
			}
			comp := c.Compress(nil, in)
			out, err := c.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s trial %d: %v", c.Name(), trial, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s trial %d: mismatch", c.Name(), trial)
			}
		}
	}
}

func TestCompressibleDataCompresses(t *testing.T) {
	in := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KiB, ratio should be high
	for _, c := range allCodecs() {
		r := Ratio(c, in)
		if r < 4 {
			t.Errorf("%s: ratio %.2f on trivially compressible page, want ≥ 4", c.Name(), r)
		}
	}
}

func TestRandomDataDoesNotExplode(t *testing.T) {
	in := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(in)
	for _, c := range allCodecs() {
		comp := c.Compress(nil, in)
		if len(comp) > len(in)+len(in)/16+64 {
			t.Errorf("%s: random 4 KiB grew to %d bytes", c.Name(), len(comp))
		}
	}
}

func TestXDeflateBeatsLZFastOnLowEntropyData(t *testing.T) {
	// Random draws from a 4-symbol alphabet: entropy coding shines,
	// match-only coding does not.
	rng := rand.New(rand.NewSource(5))
	in := make([]byte, 8192)
	for i := range in {
		in[i] = "ACGT"[rng.Intn(4)]
	}
	rLZ := Ratio(NewLZFast(), in)
	rXD := Ratio(NewXDeflate(), in)
	if rXD <= rLZ {
		t.Errorf("xdeflate ratio %.2f should exceed lzfast ratio %.2f on low-entropy data", rXD, rLZ)
	}
}

func TestSmallerWindowLowersRatio(t *testing.T) {
	// Data with long-range redundancy: matches mostly farther than 1 KiB.
	rng := rand.New(rand.NewSource(3))
	block := make([]byte, 2048)
	rng.Read(block)
	in := bytes.Repeat(block, 4) // 8 KiB with 2 KiB period
	full := Ratio(NewXDeflate(), in)
	small := Ratio(NewXDeflateWindow(1024), in)
	if small >= full {
		t.Errorf("window-1K ratio %.3f should be below full-window ratio %.3f", small, full)
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	c := NewLZFast()
	good := c.Compress(nil, []byte(strings.Repeat("hello world ", 50)))
	cases := [][]byte{
		nil,
		{0xff}, // truncated varint
		good[:len(good)/2],
		append(append([]byte(nil), good...), 0x00), // trailing garbage
	}
	for i, in := range cases {
		if _, err := c.Decompress(nil, in); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Bad offset: token says match but offset 0.
	bad := appendUvarint(nil, 8)
	bad = append(bad, 0x12, 'a', 0, 0) // 1 literal, match len 6, offset 0
	if _, err := c.Decompress(nil, bad); err == nil {
		t.Error("zero offset accepted")
	}
}

func TestXDeflateCorruptInputs(t *testing.T) {
	c := NewXDeflate()
	good := c.Compress(nil, []byte(strings.Repeat("corruption test payload ", 80)))
	for cut := 1; cut < len(good); cut += 7 {
		if out, err := c.Decompress(nil, good[:cut]); err == nil {
			// Truncation may still decode if it cut only padding bits;
			// in that case content must match a prefix decode of the
			// full length, which requires full length — so it must err.
			if len(out) != 0 {
				t.Errorf("truncated at %d accepted with %d bytes", cut, len(out))
			}
		}
	}
	if _, err := c.Decompress(nil, []byte{5, 2}); err == nil {
		t.Error("bad block type accepted")
	}
}

func TestRatioEmptyInput(t *testing.T) {
	if r := Ratio(NewLZFast(), nil); r != 1 {
		t.Errorf("Ratio(empty) = %v, want 1", r)
	}
}

func TestCodecInfoPositive(t *testing.T) {
	for _, c := range allCodecs() {
		info := c.Info()
		if info.CompressCyclesPerByte <= 0 || info.DecompressCyclesPerByte <= 0 {
			t.Errorf("%s: non-positive CodecInfo %+v", c.Name(), info)
		}
		if info.DecompressCyclesPerByte >= info.CompressCyclesPerByte {
			t.Errorf("%s: decompression should be cheaper than compression", c.Name())
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	in := bytes.Repeat([]byte{'z'}, 1000)
	c := NewXDeflate()
	comp := c.Compress(nil, in)
	out, err := c.Decompress(nil, comp)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("single-symbol stream failed: %v", err)
	}
	// The trimmed code-length header costs ~150 bytes; the body itself
	// is a handful of bytes.
	if len(comp) > 200 {
		t.Errorf("single-symbol 1000-byte run compressed to %d bytes", len(comp))
	}
}

func TestHuffmanLengthLimit(t *testing.T) {
	// Exponential frequencies force deep trees; lengths must stay ≤ 15.
	freq := make([]int, 40)
	f := 1
	for i := range freq {
		freq[i] = f
		if f < 1<<28 {
			f *= 2
		}
	}
	lens := huffBuildLengths(freq)
	for s, l := range lens {
		if l > huffMaxBits {
			t.Fatalf("symbol %d got length %d > %d", s, l, huffMaxBits)
		}
		if freq[s] > 0 && l == 0 {
			t.Fatalf("symbol %d with freq %d got zero length", s, freq[s])
		}
	}
}

// TestHuffmanKraft verifies the Kraft inequality holds (codes are
// prefix-decodable) for random frequency vectors.
func TestHuffmanKraft(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		freq := make([]int, len(raw))
		for i, v := range raw {
			freq[i] = int(v)
		}
		lens := huffBuildLengths(freq)
		sum := 0.0
		for _, l := range lens {
			if l > 0 {
				sum += 1 / float64(uint(1)<<l)
			}
		}
		return sum <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanRoundTripCodes(t *testing.T) {
	freq := []int{10, 1, 5, 0, 3, 7, 2, 0, 100}
	lens := huffBuildLengths(freq)
	codes := huffCanonicalCodes(lens)
	dec := newHuffDecoder(lens)
	var w bitWriter
	seq := []int{0, 8, 2, 5, 4, 8, 8, 6, 1, 0}
	for _, s := range seq {
		if lens[s] == 0 {
			t.Fatalf("symbol %d unexpectedly has no code", s)
		}
		w.writeBits(codes[s], uint(lens[s]))
	}
	r := bitReader{src: w.flush()}
	for i, want := range seq {
		if got := dec.decode(&r); got != want {
			t.Fatalf("symbol %d: decoded %d, want %d", i, got, want)
		}
	}
}

func TestBitIORoundTrip(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		var w bitWriter
		type pair struct {
			v uint32
			n uint
		}
		var pairs []pair
		for i := 0; i < n; i++ {
			width := uint(widths[i]%16) + 1
			v := uint32(vals[i]) & ((1 << width) - 1)
			pairs = append(pairs, pair{v, width})
			w.writeBits(v, width)
		}
		r := bitReader{src: w.flush()}
		for _, p := range pairs {
			if r.readBits(p.n) != p.v {
				return false
			}
		}
		return !r.bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitReaderPastEnd(t *testing.T) {
	r := bitReader{src: []byte{0xff}}
	r.readBits(8)
	if r.bad {
		t.Fatal("first 8 bits should be fine")
	}
	r.readBits(1)
	if !r.bad {
		t.Fatal("reading past end should set bad")
	}
}

func TestLengthDistCodeTables(t *testing.T) {
	for l := 3; l <= 258; l++ {
		c := lengthCode(l)
		lo := lengthBase[c]
		hi := lo + (1 << lengthExtra[c]) - 1
		if c == 28 {
			hi = 258
		}
		if l < lo || l > hi {
			t.Fatalf("length %d mapped to code %d range [%d,%d]", l, c, lo, hi)
		}
	}
	for d := 1; d <= 32768; d *= 3 {
		c := distCode(d)
		lo := distBase[c]
		hi := lo + (1 << distExtra[c]) - 1
		if d < lo || d > hi {
			t.Fatalf("dist %d mapped to code %d range [%d,%d]", d, c, lo, hi)
		}
	}
}

func TestLZ77ParseReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		in := make([]byte, rng.Intn(3000))
		for i := range in {
			in[i] = byte(rng.Intn(8)) // low entropy, many matches
		}
		tokens := lz77Parse(in, 32768, true)
		var out []byte
		for _, tok := range tokens {
			if tok.length == 0 {
				out = append(out, tok.lit)
			} else {
				start := len(out) - int(tok.dist)
				if start < 0 {
					t.Fatal("negative match start")
				}
				for k := 0; k < int(tok.length); k++ {
					out = append(out, out[start+k])
				}
			}
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("trial %d: token reconstruction mismatch", trial)
		}
	}
}

func TestLazyMatchingImprovesRatio(t *testing.T) {
	// Lazy matching must round-trip and, on structured text, compress
	// at least as well as greedy parsing.
	in := EnglishTextLike()
	lazy := NewXDeflate()
	greedy := NewXDeflateGreedy()
	lc := lazy.Compress(nil, in)
	gc := greedy.Compress(nil, in)
	if out, err := lazy.Decompress(nil, lc); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("lazy round trip failed: %v", err)
	}
	if out, err := greedy.Decompress(nil, gc); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("greedy round trip failed: %v", err)
	}
	if len(lc) > len(gc) {
		t.Errorf("lazy output %d bytes worse than greedy %d", len(lc), len(gc))
	}
}

// EnglishTextLike builds structured prose with overlapping phrases
// where lazy matching finds longer deferred matches.
func EnglishTextLike() []byte {
	phrases := []string{
		"the memory controller schedules ", "a refresh command every interval ",
		"the memory controller delays ", "refresh commands under load ",
		"scheduling the refresh early ", "controller schedules refresh ",
	}
	var b []byte
	rng := rand.New(rand.NewSource(12))
	for len(b) < 16384 {
		b = append(b, phrases[rng.Intn(len(phrases))]...)
	}
	return b
}

func TestGreedyLazyBothRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		in := make([]byte, rng.Intn(3000))
		for i := range in {
			in[i] = byte(rng.Intn(6))
		}
		for _, c := range []Codec{NewXDeflate(), NewXDeflateGreedy()} {
			comp := c.Compress(nil, in)
			out, err := c.Decompress(nil, comp)
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%s trial %d failed: %v", c.Name(), trial, err)
			}
		}
	}
}

func TestLZ77WindowRespected(t *testing.T) {
	in := bytes.Repeat([]byte("abcdefghij"), 200)
	for _, window := range []int{64, 256, 1024} {
		for _, tok := range lz77Parse(in, window, true) {
			if tok.length > 0 && int(tok.dist) > window {
				t.Fatalf("window %d: match dist %d exceeds window", window, tok.dist)
			}
		}
	}
}

// The 4K codec benchmarks reuse their dst buffers the way the swap
// pipeline does (Scratch staging), so their allocs/op reflect the
// steady-state hot path: 0 allocs/op, asserted by the regression tests
// in scratch_test.go.
//
// Their page is one key=value line repeated 140 times: after the first
// 31 bytes everything is one chain of maximal matches, so they time the
// codecs' best case. That is why DESIGN §8 once read "xdeflate compress
// 4K ≈ 18 µs" while the swap path paid ≈ 140 µs a page; the numbers
// that track the swap path are BenchmarkXDeflate{Compress,Decompress}Mixed
// and BenchmarkLZFast{Compress,Decompress}Mixed in mixed_bench_test.go.

// BenchmarkLZFastCompress4K is the best case: after the first line the
// encoder finds one match and skips the rest of the page with it.
func BenchmarkLZFastCompress4K(b *testing.B) {
	in := bytes.Repeat([]byte("key=value;count=123;flag=true;\n"), 140)[:4096]
	c := NewLZFast()
	dst := c.Compress(nil, in)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], in)
	}
}

// BenchmarkLZFastDecompress4K is the best case: one line of literals
// and one match that covers the rest of the page, so it times a single
// long copy and none of the per-sequence work a real page is made of.
func BenchmarkLZFastDecompress4K(b *testing.B) {
	in := bytes.Repeat([]byte("key=value;count=123;flag=true;\n"), 140)[:4096]
	c := NewLZFast()
	comp := c.Compress(nil, in)
	dst, err := c.Decompress(nil, comp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = c.Decompress(dst[:0], comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXDeflateCompress4K(b *testing.B) {
	in := bytes.Repeat([]byte("key=value;count=123;flag=true;\n"), 140)[:4096]
	c := NewXDeflate()
	dst := c.Compress(nil, in)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], in)
	}
}

func BenchmarkXDeflateDecompress4K(b *testing.B) {
	in := bytes.Repeat([]byte("key=value;count=123;flag=true;\n"), 140)[:4096]
	c := NewXDeflate()
	comp := c.Compress(nil, in)
	dst, err := c.Decompress(nil, comp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = c.Decompress(dst[:0], comp); err != nil {
			b.Fatal(err)
		}
	}
}

// Ratio returns the compression ratio original/compressed for codec c
// on src. A ratio below 1 means the data expanded.
func Ratio(c Codec, src []byte) float64 {
	if len(src) == 0 {
		return 1
	}
	out := c.Compress(nil, src)
	if len(out) == 0 {
		return 1
	}
	return float64(len(src)) / float64(len(out))
}

// The allocating convenience forms of the encoder and decoder kernels.
// Shipped code uses the pooled forms; these exist for the tests.

// NewXDeflateGreedy returns a codec with lazy matching disabled — the
// faster, lower-ratio parse the greedy-vs-lazy comparisons and the
// reference checks run beside the lazy one.
func NewXDeflateGreedy() *XDeflate { return &XDeflate{window: 32768} }

// lz77Parse parses src with a fresh encoder, one token per literal and
// per match.
func lz77Parse(src []byte, window int, lazy bool) []lzToken {
	var e lz77Encoder
	var tokens []lzToken
	p := 0
	for _, q := range e.parse(src, window, lazy) {
		for _, b := range src[p : p+int(q.lits)] {
			tokens = append(tokens, lzToken{lit: b})
		}
		p += int(q.lits)
		if q.length > 0 {
			tokens = append(tokens, lzToken{length: q.length, dist: q.dist})
			p += int(q.length)
		}
	}
	return tokens
}

// huffBuildLengths returns the code lengths for freq.
func huffBuildLengths(freq []int) []uint8 {
	lengths := make([]uint8, len(freq))
	var hs huffScratch
	huffBuildLengthsInto(lengths, freq, &hs)
	return lengths
}

// huffCanonicalCodes returns the canonical codes alone for lengths.
func huffCanonicalCodes(lengths []uint8) []uint32 {
	codes := make([]uint32, len(lengths))
	huffCanonicalTableInto(codes, lengths)
	for i := range codes {
		codes[i] >>= 4
	}
	return codes
}

// newHuffDecoder returns a decoder for lengths with no extra bits.
func newHuffDecoder(lengths []uint8) *huffDecoder {
	d := &huffDecoder{}
	d.init(lengths, make([]uint8, len(lengths)))
	return d
}
