package compress

import (
	"bytes"
	"math/rand"
	"testing"

	"xfm/internal/corpus"
)

// pageDecoder is the half of Codec the decoder tests drive; the frozen
// reference codecs implement it too.
type pageDecoder interface {
	Decompress(dst, src []byte) ([]byte, error)
}

// decodeInCanary decodes stream behind prefix in the middle of a buffer
// filled with a sentinel: dst has spare capacity well past the output
// the stream claims, and the buffer starts before dst does. A decoder
// owns out[base:want] and nothing else — in SwapInBatch the bytes on
// either side are another worker's page — so the test fails if the
// prefix, anything in front of it, or anything from want to the end of
// the buffer has changed, whether the stream was accepted or not.
func decodeInCanary(t *testing.T, dec pageDecoder, prefix, stream []byte) ([]byte, error) {
	t.Helper()
	const guard, sentinel = 64, 0xA5
	claimed, _, _ := readUvarint(stream)
	base := guard + len(prefix)
	want := base + int(min(claimed, 1<<16))
	buf := bytes.Repeat([]byte{sentinel}, want+guard)
	copy(buf[guard:], prefix)
	got, err := dec.Decompress(buf[guard:base], stream)
	for i, b := range buf {
		switch {
		case i >= base && i < want:
		case i >= guard && i < base:
			if b != prefix[i-guard] {
				t.Fatalf("decoder changed byte %d of the %d-byte dst prefix", i-guard, len(prefix))
			}
		case b != sentinel:
			t.Fatalf("decoder wrote at %d, outside its output [%d,%d) (err=%v)", i, base, want, err)
		}
	}
	return got, err
}

// The lzfast fast loop takes a sequence only when it has lzfFastIn bytes
// of input and lzfFastOut bytes of output in front of it, and picks its
// copy by the class of the literal run (short / one extension byte),
// the match (short / one extension byte) and the offset (< 8, 8–15,
// ≥ 16). The tests below walk hand-assembled streams across every one
// of those edges and compare with the frozen reference decoder.

// lzfSeq is one sequence of a hand-assembled lzfast stream; mlen 0
// marks the final, literals-only sequence.
type lzfSeq struct{ lits, offset, mlen int }

// lzfCrafted is an assembled stream, the text it decodes to and the
// position of every sequence's token, for tests that patch one.
type lzfCrafted struct {
	stream, plain []byte
	tokenAt       []int
}

// craftLZFast emits seqs exactly as given. Literal bytes follow a
// pattern with no short period, so a copy from the wrong place shows.
func craftLZFast(seqs []lzfSeq) lzfCrafted {
	var c lzfCrafted
	var body []byte
	for _, q := range seqs {
		from := len(c.plain)
		for i := 0; i < q.lits; i++ {
			c.plain = append(c.plain, byte((from+i)*7+3))
		}
		c.tokenAt = append(c.tokenAt, len(body))
		if q.mlen == 0 {
			body = lzfEmitFinal(body, c.plain[from:])
			continue
		}
		body = lzfEmit(body, c.plain[from:], q.offset, q.mlen)
		for k := 0; k < q.mlen; k++ {
			c.plain = append(c.plain, c.plain[len(c.plain)-q.offset])
		}
	}
	c.stream = appendUvarint(nil, uint64(len(c.plain)))
	for i := range c.tokenAt {
		c.tokenAt[i] += len(c.stream)
	}
	c.stream = append(c.stream, body...)
	return c
}

// lzfOffsetAt returns where the offset field of a sequence with the
// given literal run sits, relative to its token.
func lzfOffsetAt(lits int) int {
	if lits < 15 {
		return 1 + lits
	}
	return 1 + (lits-15)/255 + 1 + lits
}

// lzfHead gives the sequence under test 48 bytes of history — enough
// for every offset the sweeps use.
var lzfHead = lzfSeq{lits: 44, offset: 20, mlen: 4}

// lzfTail returns sequences that decode to exactly k bytes from exactly
// r bytes of input: zero-literal matches (3 input bytes for 4–18 output
// bytes, 4 for 19–273) and a final literal run. ok is false when no
// such tail exists. It is what puts a sequence k bytes before the end
// of the output and r bytes before the end of the input independently.
func lzfTail(k, r int) (tail []lzfSeq, ok bool) {
	if k == 0 || r == 0 {
		return nil, k == 0 && r == 0
	}
	for lits := 0; lits <= k; lits++ {
		in := r
		if lits > 0 {
			in -= 1 + lits
			if lits >= 15 {
				in-- // one extension byte up to 269 literals
			}
		}
		for long := 0; in-4*long >= 0; long++ {
			if (in-4*long)%3 != 0 {
				continue
			}
			short := (in - 4*long) / 3
			if out := k - lits; out < 4*short+19*long || out > 18*short+273*long {
				continue
			}
			out := k - lits
			for i := 0; i < short+long; i++ {
				lo, hi := 4, 18
				if i >= short {
					lo, hi = 19, 273
				}
				// Leave the rest their minimum, take what is left up
				// to this one's maximum.
				rest := 4*max(short-i-1, 0) + 19*min(short+long-i-1, long)
				n := max(lo, min(hi, out-rest))
				tail = append(tail, lzfSeq{offset: 16, mlen: n})
				out -= n
			}
			if lits > 0 {
				tail = append(tail, lzfSeq{lits: lits})
			}
			return tail, true
		}
	}
	return nil, false
}

// lzfAgree decodes stream behind a non-empty dst prefix with the
// shipped decoder (inside canaries) and the reference: same verdict,
// same bytes on accept, ErrCorrupt and the untouched prefix on reject.
func lzfAgree(t *testing.T, stream []byte, what string, args ...any) {
	t.Helper()
	prefix := []byte("dst-prefix")
	got, err := decodeInCanary(t, NewLZFast(), prefix, stream)
	want, refErr := newRefLZFast().Decompress(append([]byte(nil), prefix...), stream)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf(what+": new err=%v, reference err=%v", append(args, err, refErr)...)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf(what+": accepted, but the %d bytes differ from the reference's %d", append(args, len(got), len(want))...)
	case err != nil && (err != ErrCorrupt || !bytes.Equal(got, prefix)):
		t.Fatalf(what+": err=%v with %d bytes of dst, want ErrCorrupt and the %d given", append(args, err, len(got), len(prefix))...)
	}
}

// lzfShapes is the reduced shape set the placement sweeps use: both
// sides of every class boundary of offset, match length and literal
// run. Under -race (≈ 15× slower, and nothing here is concurrent) it
// thins to the boundaries themselves.
func lzfShapes() (offsets, mlens, lits []int) {
	if raceEnabled {
		return []int{1, 7, 8, 16}, []int{4, 18, 19}, []int{0, 14, 15}
	}
	return []int{1, 3, 7, 8, 15, 16, 40}, []int{4, 8, 9, 16, 17, 18, 19, 40}, []int{0, 8, 14, 15, 16, 40}
}

// TestLZFastSequenceShapes: every offset 1…40 × match length 4…40 ×
// literal run 0…40, once with room to spare on both sides (the fast
// loop's copies) and once as the very end of the stream (the exact
// path's).
func TestLZFastSequenceShapes(t *testing.T) {
	step := 1
	if raceEnabled {
		step = 3
	}
	roomy, _ := lzfTail(48, 50)
	for offset := 1; offset <= 40; offset += step {
		for mlen := 4; mlen <= 40; mlen += step {
			for lits := 0; lits <= 40; lits += step {
				for _, tail := range [][]lzfSeq{roomy, nil} {
					c := craftLZFast(append([]lzfSeq{lzfHead, {lits, offset, mlen}}, tail...))
					lzfAgree(t, c.stream, "offset %d mlen %d lits %d tail %d", offset, mlen, lits, len(tail))
				}
			}
		}
	}
}

// TestLZFastSequencePlacement puts each shape so that it ends k bytes
// before want, k = 0…48, with r = 0…24 bytes of input behind it: every
// combination of "enough output room" and "enough input room" the fast
// loop's admission test can see.
func TestLZFastSequencePlacement(t *testing.T) {
	offsets, mlens, litRuns := lzfShapes()
	placed := 0
	for k := 0; k <= 48; k++ {
		for r := 0; r <= 24; r++ {
			tail, ok := lzfTail(k, r)
			if !ok {
				continue
			}
			placed++
			for _, offset := range offsets {
				for _, mlen := range mlens {
					for _, lits := range litRuns {
						c := craftLZFast(append([]lzfSeq{lzfHead, {lits, offset, mlen}}, tail...))
						lzfAgree(t, c.stream, "offset %d mlen %d lits %d, %d bytes before want, %d input bytes behind", offset, mlen, lits, k, r)
					}
				}
			}
		}
	}
	if placed < 500 {
		t.Fatalf("only %d of the 49×25 placements exist: lzfTail lost its reach", placed)
	}
}

// TestLZFastSequencePrefixes cuts streams at every byte: a cut inside
// the sequence under test, inside its extension bytes, or just behind
// it is an input bound the fast loop must notice without reading past
// it (the prefix's capacity is pinned to its length).
func TestLZFastSequencePrefixes(t *testing.T) {
	offsets, mlens, litRuns := lzfShapes()
	roomy, _ := lzfTail(48, 50)
	near, _ := lzfTail(20, 21)
	for _, offset := range offsets {
		for _, mlen := range mlens {
			for _, lits := range litRuns {
				for _, tail := range [][]lzfSeq{roomy, near, nil} {
					c := craftLZFast(append([]lzfSeq{lzfHead, {lits, offset, mlen}}, tail...))
					for cut := 0; cut < len(c.stream); cut++ {
						lzfAgree(t, c.stream[:cut:cut], "offset %d mlen %d lits %d tail %d: prefix [0:%d)", offset, mlen, lits, len(tail), cut)
					}
				}
			}
		}
	}
}

// TestLZFastCorruptSequences damages each shape at every distance from
// the end of the output: whatever room the fast loop has, the verdict
// is the exact path's, which is the reference's.
func TestLZFastCorruptSequences(t *testing.T) {
	offsets, mlens, litRuns := lzfShapes()
	for k := 0; k <= 48; k++ {
		var tail []lzfSeq
		if k > 0 {
			tail = []lzfSeq{{lits: k}}
		}
		for _, offset := range offsets {
			for _, mlen := range mlens {
				for _, lits := range litRuns {
					c := craftLZFast(append([]lzfSeq{lzfHead, {lits, offset, mlen}}, tail...))
					at := c.tokenAt[1] + lzfOffsetAt(lits)
					patched := func(edit func(s []byte) []byte) []byte {
						return edit(append([]byte(nil), c.stream...))
					}
					reheaded := func(origLen int, body []byte) []byte {
						return append(appendUvarint(nil, uint64(origLen)), body...)
					}
					body := c.stream[c.tokenAt[0]:]
					cases := map[string][]byte{
						"offset 0": patched(func(s []byte) []byte { s[at], s[at+1] = 0, 0; return s }),
						// One byte before the output: inside the dst
						// prefix, which is not the stream's to copy.
						"offset before base": patched(func(s []byte) []byte {
							reach := len(c.plain) - k - mlen + 1
							s[at], s[at+1] = byte(reach), byte(reach>>8)
							return s
						}),
						// The claimed length cuts the match short by one.
						"match past want": reheaded(len(c.plain)-k-1, body),
						"trailing byte":   append(append([]byte(nil), c.stream...), 0),
					}
					// The final run claims one literal more than the
					// input holds (and the header makes room for it).
					longer := craftLZFast([]lzfSeq{lzfHead, {lits, offset, mlen}, {lits: k + 1}}).stream
					cases["literals past the input"] = longer[:len(longer)-1]
					if k > 0 {
						cases["match nibble on the final sequence"] = patched(func(s []byte) []byte { s[c.tokenAt[2]] |= 1; return s })
					}
					for name, stream := range cases {
						if _, err := newRefLZFast().Decompress(nil, stream); err == nil {
							t.Fatalf("offset %d mlen %d lits %d k %d: the reference accepts %q: not a corrupt case", offset, mlen, lits, k, name)
						}
						lzfAgree(t, stream, "offset %d mlen %d lits %d, %d bytes before want: %s", offset, mlen, lits, k, name)
					}
				}
			}
		}
	}
}

// TestDecodersAgreeOnDamagedPages damages real streams — every corpus
// generator's pages, compressed by the shipped encoders — a few bytes
// at a time: flips, overwrites, truncations and splices that leave most
// of the stream decodable, so the damage is met deep inside the fast
// loops rather than at the header. Verdict and bytes must be the
// reference decoder's, with nothing written outside out[base:want].
func TestDecodersAgreeOnDamagedPages(t *testing.T) {
	pagesPerGen, damages := 6, 40
	if raceEnabled {
		pagesPerGen, damages = 2, 10
	}
	codecs := []struct {
		name string
		nw   Codec
		ref  pageDecoder
	}{
		{"lzfast", NewLZFast(), newRefLZFast()},
		{"xdeflate", NewXDeflate(), newRefXDeflate()},
	}
	rng := rand.New(rand.NewSource(18))
	prefix := []byte("dst-prefix")
	for _, c := range codecs {
		accepted := 0
		for _, gen := range corpus.Names() {
			for pi, page := range mixedCorpusPages(t, gen)[:pagesPerGen] {
				stream := c.nw.Compress(nil, page)
				for d := 0; d < damages; d++ {
					bad := append([]byte(nil), stream...)
					at := rng.Intn(len(bad))
					switch rng.Intn(5) {
					case 0:
						bad[at] ^= 1 << uint(rng.Intn(8))
					case 1:
						bad[at] = byte(rng.Intn(256))
					case 2:
						bad = bad[:at]
					case 3: // drop a few bytes
						bad = append(bad[:at], bad[min(at+1+rng.Intn(4), len(bad)):]...)
					case 4: // repeat a few bytes
						n := min(1+rng.Intn(4), len(bad)-at)
						bad = append(bad[:at+n], bad[at:]...)
					}
					bad = bad[:len(bad):len(bad)]
					got, err := decodeInCanary(t, c.nw, prefix, bad)
					want, refErr := c.ref.Decompress(append([]byte(nil), prefix...), bad)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s %s page %d damage %d: new err=%v, reference err=%v", c.name, gen, pi, d, err, refErr)
					}
					if err == nil {
						accepted++
						if !bytes.Equal(got, want) {
							t.Fatalf("%s %s page %d damage %d: both accept, bytes differ", c.name, gen, pi, d)
						}
					} else if !bytes.Equal(got, prefix) {
						t.Fatalf("%s %s page %d damage %d: rejected with %d bytes of dst, want the %d given", c.name, gen, pi, d, len(got), len(prefix))
					}
				}
			}
		}
		if accepted == 0 {
			t.Fatalf("%s: no damaged stream was accepted by both decoders: the damage is too coarse to reach the copy loops", c.name)
		}
	}
}
