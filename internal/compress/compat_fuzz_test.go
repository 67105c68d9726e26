package compress

import (
	"bytes"
	"fmt"
	"testing"

	"xfm/internal/corpus"
)

// Differential stream-format tests: the word-wise kernels must stay
// wire-compatible with the PR 2 byte-serial reference implementations
// in compat_ref_test.go, in both directions. The corpus pages used by
// the experiments seed the fuzz targets so the "real" page shapes are
// always covered, on top of the structural testInputs cases.

// compatCorpusPages returns a spread of experiment-corpus pages.
func compatCorpusPages() [][]byte {
	var pages [][]byte
	for seed := int64(0); seed < 4; seed++ {
		pages = append(pages,
			corpus.KeyValue(seed, 4096),
			corpus.CSVTable(seed, 4096),
		)
	}
	return pages
}

// compatInputs is every deterministic differential-test input: the
// structural cases plus the corpus pages.
func compatInputs() map[string][]byte {
	in := testInputs()
	for i, p := range compatCorpusPages() {
		in[fmt.Sprintf("corpus-%d", i)] = p
	}
	return in
}

// TestLZFastCompatWithReference checks both stream directions for
// lzfast: new encoder → reference decoder, reference encoder → new
// decoder.
func TestLZFastCompatWithReference(t *testing.T) {
	nw := NewLZFast()
	ref := newRefLZFast()
	for name, in := range compatInputs() {
		newStream := nw.Compress(nil, in)
		out, err := ref.Decompress(nil, newStream)
		if err != nil {
			t.Fatalf("%s: reference decoder rejects new stream: %v", name, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%s: new stream through reference decoder: got %d bytes, want %d",
				name, len(out), len(in))
		}
		refStream := ref.Compress(nil, in)
		out, err = nw.Decompress(nil, refStream)
		if err != nil {
			t.Fatalf("%s: new decoder rejects reference stream: %v", name, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%s: reference stream through new decoder: got %d bytes, want %d",
				name, len(out), len(in))
		}
	}
}

// TestXDeflateCompatWithReference checks both stream directions for
// xdeflate.
func TestXDeflateCompatWithReference(t *testing.T) {
	nw := NewXDeflate()
	ref := newRefXDeflate()
	for name, in := range compatInputs() {
		newStream := nw.Compress(nil, in)
		out, err := ref.Decompress(nil, newStream)
		if err != nil {
			t.Fatalf("%s: reference decoder rejects new stream: %v", name, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%s: new stream through reference decoder: got %d bytes, want %d",
				name, len(out), len(in))
		}
		refStream := ref.Compress(nil, in)
		out, err = nw.Decompress(nil, refStream)
		if err != nil {
			t.Fatalf("%s: new decoder rejects reference stream: %v", name, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%s: reference stream through new decoder: got %d bytes, want %d",
				name, len(out), len(in))
		}
	}
}

// TestXDeflateEncoderBitIdentical pins a stronger property than wire
// compatibility: the word-wise xdeflate encoder emits byte-identical
// streams to the PR 2 encoder. The experiment tables report real
// compressed sizes, so this is what keeps them bit-identical across
// the kernel overhaul.
func TestXDeflateEncoderBitIdentical(t *testing.T) {
	nw := NewXDeflate()
	ref := newRefXDeflate()
	for name, in := range compatInputs() {
		got := nw.Compress(nil, in)
		want := ref.Compress(nil, in)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stream diverged: new %d bytes, reference %d bytes",
				name, len(got), len(want))
		}
	}
}

// TestLZFastEncoderBitIdentical pins the same property for lzfast: the
// chaos gate, cmd/dramsim and cmd/tracegen recordings are functions of
// the exact bytes NewLZFast emits, so the encoder is held to a frozen
// copy of itself at every window the experiments use, on the structural
// inputs and on 64 pages of every corpus generator.
func TestLZFastEncoderBitIdentical(t *testing.T) {
	inputs := compatInputs()
	for _, name := range corpus.Names() {
		for i, p := range mixedCorpusPages(t, name)[:64] {
			inputs[fmt.Sprintf("%s-%d", name, i)] = p
		}
	}
	for _, window := range []int{lzfMaxOffset, 2048, 1024} {
		nw := NewLZFastWindow(window)
		ref := &refLZFastTwoSlot{maxOffset: window}
		var got, want []byte
		for name, in := range inputs {
			got = nw.Compress(got[:0], in)
			want = ref.Compress(want[:0], in)
			if !bytes.Equal(got, want) {
				t.Errorf("%s window %d: stream diverged: new %d bytes, reference %d bytes",
					name, window, len(got), len(want))
			}
		}
	}
}

// FuzzLZFastCompat fuzzes both stream directions of the lzfast format
// against the reference implementation, plus encoder stream identity
// with the frozen two-slot encoder at every window the experiments use.
// Each input is compressed twice in a row, so the second call probes the
// table the first one left full of its own prefixes (lzfEncState is
// never cleared between calls; the pool hands the same state back).
func FuzzLZFastCompat(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 5000))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	for _, p := range compatCorpusPages() {
		f.Add(p)
	}
	ref := newRefLZFast()
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, window := range lzfWindows {
			nw := NewLZFastWindow(window)
			want := (&refLZFastTwoSlot{maxOffset: window}).Compress(nil, in)
			for call := 1; call <= 2; call++ {
				if got := nw.Compress(nil, in); !bytes.Equal(got, want) {
					t.Fatalf("window %d, call %d: encoder stream diverged from reference", window, call)
				}
			}
			out, err := ref.Decompress(nil, want)
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("window %d: reference decoder on new stream: err=%v", window, err)
			}
		}
		refStream := ref.Compress(nil, in)
		out, err := NewLZFast().Decompress(nil, refStream)
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("new decoder on reference stream: err=%v", err)
		}
	})
}

// FuzzXDeflateCompat fuzzes both stream directions of the xdeflate
// format against the reference implementation, plus encoder stream
// identity.
func FuzzXDeflateCompat(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("abcabcabcabc"))
	f.Add(bytes.Repeat([]byte("xy"), 3000))
	for _, p := range compatCorpusPages() {
		f.Add(p)
	}
	nw := NewXDeflate()
	ref := newRefXDeflate()
	f.Fuzz(func(t *testing.T, in []byte) {
		newStream := nw.Compress(nil, in)
		refStream := ref.Compress(nil, in)
		if !bytes.Equal(newStream, refStream) {
			t.Fatal("encoder stream diverged from reference")
		}
		out, err := ref.Decompress(nil, newStream)
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("reference decoder on new stream: err=%v", err)
		}
		out, err = nw.Decompress(nil, refStream)
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("new decoder on reference stream: err=%v", err)
		}
	})
}

// FuzzDecodersAgreeOnGarbage feeds arbitrary bytes to the new and
// reference decoders: they must agree on accept/reject (and on the
// output when both accept), so corrupt-input handling cannot drift.
func FuzzDecodersAgreeOnGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add(NewLZFast().Compress(nil, []byte("seed")))
	f.Add(NewXDeflate().Compress(nil, []byte("seed seed seed")))
	// Truncated valid streams: the highest-value garbage is a real
	// stream cut mid-structure (header, token boundary, Huffman table),
	// the exact shape a torn far-memory read produces. The exhaustive
	// all-prefix sweep lives in truncation_test.go; these seeds steer
	// the fuzzer's mutations into the same territory.
	for _, in := range [][]byte{
		[]byte("truncation seed truncation seed"),
		bytes.Repeat([]byte{0}, 4096),
		corpus.KeyValue(11, 4096),
	} {
		for _, codec := range []Codec{NewLZFast(), NewXDeflate()} {
			stream := codec.Compress(nil, in)
			for _, frac := range []int{1, 2, 4} {
				cut := len(stream) / (frac * 2)
				f.Add(stream[:cut:cut])
			}
			if len(stream) > 0 {
				f.Add(stream[: len(stream)-1 : len(stream)-1])
			}
		}
	}
	lz, refLz := NewLZFast(), newRefLZFast()
	xd, refXd := NewXDeflate(), newRefXDeflate()
	f.Fuzz(func(t *testing.T, in []byte) {
		gotLz, errLz := lz.Decompress(nil, in)
		refGotLz, refErrLz := refLz.Decompress(nil, in)
		if (errLz == nil) != (refErrLz == nil) {
			t.Fatalf("lzfast decoders disagree: new err=%v, reference err=%v", errLz, refErrLz)
		}
		if errLz == nil && !bytes.Equal(gotLz, refGotLz) {
			t.Fatal("lzfast decoders accept but differ")
		}
		gotXd, errXd := xd.Decompress(nil, in)
		refGotXd, refErrXd := refXd.Decompress(nil, in)
		if (errXd == nil) != (refErrXd == nil) {
			t.Fatalf("xdeflate decoders disagree: new err=%v, reference err=%v", errXd, refErrXd)
		}
		if errXd == nil && !bytes.Equal(gotXd, refGotXd) {
			t.Fatal("xdeflate decoders accept but differ")
		}
	})
}
