package ecc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeRef and decodeRef are the bit-serial implementation the
// table-driven kernel replaced, kept verbatim as the reference the
// equivalence tests and FuzzDecodeMatchesRef compare against.

// refDataPositions[i] is the codeword position of data bit i.
var refDataPositions = func() [64]int {
	var out [64]int
	i := 0
	for pos := 1; pos <= 72 && i < 64; pos++ {
		if pos&(pos-1) == 0 { // power of two: check bit
			continue
		}
		out[i] = pos
		i++
	}
	return out
}()

var refCheckPositions = [7]int{1, 2, 4, 8, 16, 32, 64}

func encodeRef(data uint64) uint8 {
	var code [73]bool
	for i := 0; i < 64; i++ {
		code[refDataPositions[i]] = data>>uint(i)&1 == 1
	}
	var parity uint8
	for c, cp := range refCheckPositions {
		bit := false
		for pos := 1; pos <= 72; pos++ {
			if pos&cp != 0 && code[pos] {
				bit = !bit
			}
		}
		if bit {
			parity |= 1 << uint(c)
			code[cp] = true
		}
	}
	overall := false
	for pos := 1; pos <= 72; pos++ {
		if code[pos] {
			overall = !overall
		}
	}
	if overall {
		parity |= 1 << 7
	}
	return parity
}

func decodeRef(data uint64, parity uint8) (uint64, Status) {
	var code [73]bool
	for i := 0; i < 64; i++ {
		code[refDataPositions[i]] = data>>uint(i)&1 == 1
	}
	for c, cp := range refCheckPositions {
		code[cp] = parity>>uint(c)&1 == 1
	}
	syndrome := 0
	for _, cp := range refCheckPositions {
		bit := false
		for pos := 1; pos <= 72; pos++ {
			if pos&cp != 0 && code[pos] {
				bit = !bit
			}
		}
		if bit {
			syndrome |= cp
		}
	}
	overall := parity>>7&1 == 1
	for pos := 1; pos <= 72; pos++ {
		if code[pos] {
			overall = !overall
		}
	}
	switch {
	case syndrome == 0 && !overall:
		return data, OK
	case syndrome == 0 && overall:
		return data, ParityBitFlip
	case overall:
		if syndrome > 72 {
			return data, DoubleError
		}
		if syndrome&(syndrome-1) == 0 {
			return data, ParityBitFlip
		}
		for i := 0; i < 64; i++ {
			if refDataPositions[i] == syndrome {
				return data ^ 1<<uint(i), Corrected
			}
		}
		return data, DoubleError
	default:
		return data, DoubleError
	}
}

// refWords is the word set the exhaustive flip sweeps run over: the
// corners plus a few seeded random words.
func refWords() []uint64 {
	rng := rand.New(rand.NewSource(3))
	ws := []uint64{0, ^uint64(0), 1, 1 << 63, 0x5555555555555555, 0xdeadbeefcafef00d}
	for i := 0; i < 6; i++ {
		ws = append(ws, rng.Uint64())
	}
	return ws
}

// checkDecode compares Decode against decodeRef on one input.
func checkDecode(t *testing.T, data uint64, parity uint8) {
	t.Helper()
	got, gotSt := Decode(data, parity)
	want, wantSt := decodeRef(data, parity)
	if got != want || gotSt != wantSt {
		t.Fatalf("Decode(%#x, %#02x) = (%#x, %v), reference (%#x, %v)",
			data, parity, got, gotSt, want, wantSt)
	}
}

func TestEncodeMatchesRef(t *testing.T) {
	for i := 0; i < 64; i++ {
		if got, want := Encode(1<<uint(i)), encodeRef(1<<uint(i)); got != want {
			t.Fatalf("Encode(1<<%d) = %#02x, reference %#02x", i, got, want)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if got, want := Encode(a), encodeRef(a); got != want {
			t.Fatalf("Encode(%#x) = %#02x, reference %#02x", a, got, want)
		}
		// Linearity is what makes the sliced tables exact.
		if Encode(a^b) != Encode(a)^Encode(b) {
			t.Fatalf("Encode is not linear on %#x, %#x", a, b)
		}
	}
}

// TestEncodeMatchesRefAcrossSlices covers what a sliced table can get
// wrong and a byte table cannot: a bit attributed to the wrong side of
// a slice boundary. Per boundary, every run of 0-4 bits below it joined
// to 0-4 bits above it: alone, inverted, and laid over random words.
func TestEncodeMatchesRefAcrossSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, b := range []uint{shift1, shift2, shift3, shift4, shift5} {
		for lo := uint(0); lo <= 4; lo++ {
			for hi := uint(0); hi <= 4; hi++ {
				run := (uint64(1)<<(lo+hi) - 1) << (b - lo) // bits [b-lo, b+hi)
				for _, w := range []uint64{run, ^run, run ^ rng.Uint64(), run & rng.Uint64()} {
					if got, want := Encode(w), encodeRef(w); got != want {
						t.Fatalf("boundary %d/%d, run %#x: Encode(%#x) = %#02x, reference %#02x", b-1, b, run, w, got, want)
					}
				}
			}
		}
	}
	if shift5+narrowBits != 64 {
		t.Fatalf("slices cover %d bits, want 64", shift5+narrowBits)
	}
}

// TestDecodeMatchesRefOnFlips sweeps, per word, the clean codeword,
// all 72 single flips and all 72·71/2 = 2556 double flips of the
// (data, parity) pair, comparing corrected data and Status.
func TestDecodeMatchesRefOnFlips(t *testing.T) {
	flip := func(data uint64, parity uint8, bit int) (uint64, uint8) {
		if bit < 64 {
			return data ^ 1<<uint(bit), parity
		}
		return data, parity ^ 1<<uint(bit-64)
	}
	for _, w := range refWords() {
		p := Encode(w)
		checkDecode(t, w, p)
		doubles := 0
		for a := 0; a < 72; a++ {
			d1, p1 := flip(w, p, a)
			checkDecode(t, d1, p1)
			if got, st := Decode(d1, p1); got != w || st == OK || st == DoubleError {
				t.Fatalf("single flip %d of %#x: (%#x, %v)", a, w, got, st)
			}
			for b := a + 1; b < 72; b++ {
				d2, p2 := flip(d1, p1, b)
				checkDecode(t, d2, p2)
				if _, st := Decode(d2, p2); st != DoubleError {
					t.Fatalf("double flip %d,%d of %#x: %v", a, b, w, st)
				}
				doubles++
			}
		}
		if doubles != 2556 {
			t.Fatalf("swept %d double flips, want 2556", doubles)
		}
	}
}

// TestDecodeMatchesRefOnAllParityBytes covers every syndrome a word
// can meet, including the ones beyond the codeword (positions 72-127).
func TestDecodeMatchesRefOnAllParityBytes(t *testing.T) {
	for _, w := range refWords() {
		for p := 0; p < 256; p++ {
			checkDecode(t, w, uint8(p))
		}
	}
}

func FuzzDecodeMatchesRef(f *testing.F) {
	f.Add(uint64(0), uint8(0))
	f.Add(^uint64(0), uint8(0xff))
	f.Add(uint64(0xdeadbeefcafef00d), uint8(0x48)) // syndrome 72: inside the range check, not a data position
	f.Fuzz(func(t *testing.T, data uint64, parity uint8) {
		if got, want := Encode(data), encodeRef(data); got != want {
			t.Fatalf("Encode(%#x) = %#02x, reference %#02x", data, got, want)
		}
		checkDecode(t, data, parity)
	})
}

func TestCleanWordDecodesOK(t *testing.T) {
	f := func(data uint64) bool {
		p := Encode(data)
		out, st := Decode(data, p)
		return st == OK && out == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSingleDataBitErrorCorrected(t *testing.T) {
	f := func(data uint64, bitSel uint8) bool {
		p := Encode(data)
		bit := uint(bitSel) % 64
		corrupted := data ^ 1<<bit
		out, st := Decode(corrupted, p)
		return st == Corrected && out == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSingleParityBitErrorDetected(t *testing.T) {
	f := func(data uint64, bitSel uint8) bool {
		p := Encode(data)
		bit := uint(bitSel) % 8
		out, st := Decode(data, p^1<<bit)
		// Data must be untouched; the flip is in the ECC byte.
		return st == ParityBitFlip && out == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDoubleDataBitErrorDetected(t *testing.T) {
	f := func(data uint64, aSel, bSel uint8) bool {
		a := uint(aSel) % 64
		b := uint(bSel) % 64
		if a == b {
			return true
		}
		p := Encode(data)
		corrupted := data ^ 1<<a ^ 1<<b
		_, st := Decode(corrupted, p)
		return st == DoubleError
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDoubleMixedErrorDetected(t *testing.T) {
	// One data bit + one parity bit flipped must never be silently
	// "corrected" into wrong data.
	f := func(data uint64, dSel, pSel uint8) bool {
		p := Encode(data)
		corrupted := data ^ 1<<(uint(dSel)%64)
		badParity := p ^ 1<<(uint(pSel)%8)
		out, st := Decode(corrupted, badParity)
		if st == Corrected || st == OK || st == ParityBitFlip {
			// Acceptable only if it restored the true data.
			return out == data
		}
		return st == DoubleError
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPageParityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	page := make([]byte, 4096)
	rng.Read(page)
	parity := PageParity(page)
	if len(parity) != 512 {
		t.Fatalf("parity bytes = %d, want 512 (x72 layout: 1 ECC byte / 8 data bytes)", len(parity))
	}
	corrected, bad := VerifyPage(page, parity)
	if corrected != 0 || bad != 0 {
		t.Fatalf("clean page reported corrected=%d bad=%d", corrected, bad)
	}
}

func TestPageSingleBitStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	page := make([]byte, 4096)
	rng.Read(page)
	want := append([]byte(nil), page...)
	parity := PageParity(page)
	// Flip one bit in each of 64 distinct words.
	for w := 0; w < 64; w++ {
		byteIdx := w*64 + rng.Intn(8)
		page[byteIdx] ^= 1 << uint(rng.Intn(8))
	}
	corrected, bad := VerifyPage(page, parity)
	if corrected != 64 || bad != 0 {
		t.Fatalf("corrected=%d bad=%d, want 64/0", corrected, bad)
	}
	for i := range page {
		if page[i] != want[i] {
			t.Fatalf("byte %d not restored", i)
		}
	}
}

func TestPageDoubleBitDetected(t *testing.T) {
	page := make([]byte, 64)
	parity := PageParity(page)
	page[0] ^= 0x03 // two bits in the same word
	corrected, bad := VerifyPage(page, parity)
	if corrected != 0 || bad != 1 {
		t.Fatalf("corrected=%d bad=%d, want 0/1", corrected, bad)
	}
}

// parityWordwise and verifyWordwise are the page kernels one word at a
// time through Encode and Decode: what the line-at-a-time kernels must
// equal on every input, stored parity of any content included.
func parityWordwise(dst, data []byte) {
	for i := range dst {
		dst[i] = Encode(binary.LittleEndian.Uint64(data[i*8:]))
	}
}

func verifyWordwise(data, parity []byte) (corrected, uncorrectable int) {
	for i, p := range parity {
		fixed, st := Decode(binary.LittleEndian.Uint64(data[i*8:]), p)
		switch st {
		case Corrected:
			binary.LittleEndian.PutUint64(data[i*8:], fixed)
			corrected++
		case DoubleError:
			uncorrectable++
		}
	}
	return corrected, uncorrectable
}

// checkKernels runs both page kernels on data (and VerifyPage against
// the given stored parity) beside the word-at-a-time oracle. The
// kernels work on copies placed off bytes into canary-filled buffers,
// so a store outside the slices they were handed is caught too.
func checkKernels(t *testing.T, data, stored []byte, off int) {
	t.Helper()
	const canary = 0xa5
	place := func(b []byte) (buf, window []byte) {
		buf = bytes.Repeat([]byte{canary}, off+len(b)+lineBytes)
		window = buf[off : off+len(b) : off+len(b)]
		copy(window, b)
		return buf, window
	}
	intact := func(what string, buf []byte, n int) {
		t.Helper()
		for i, c := range buf {
			if (i < off || i >= off+n) && c != canary {
				t.Fatalf("len %d off %d: %s wrote byte %d, outside its %d-byte slice", len(data), off, what, i-off, n)
			}
		}
	}

	wantPar := make([]byte, len(data)/8)
	parityWordwise(wantPar, data)
	dataBuf, d := place(data)
	parBuf, par := place(wantPar)
	clear(par)
	PageParityInto(par, d)
	if !bytes.Equal(par, wantPar) || !bytes.Equal(d, data) {
		t.Fatalf("len %d off %d: PageParityInto differs from word-at-a-time Encode", len(data), off)
	}
	intact("PageParityInto", parBuf, len(par))
	intact("PageParityInto", dataBuf, len(d))

	wantData := append([]byte(nil), data...)
	wantC, wantU := verifyWordwise(wantData, stored)
	storedBuf, st := place(stored)
	gotC, gotU := VerifyPage(d, st)
	if gotC != wantC || gotU != wantU {
		t.Fatalf("len %d off %d: VerifyPage = (%d, %d), word-at-a-time Decode (%d, %d)", len(data), off, gotC, gotU, wantC, wantU)
	}
	if !bytes.Equal(d, wantData) {
		t.Fatalf("len %d off %d: VerifyPage left different data than word-at-a-time Decode", len(data), off)
	}
	if !bytes.Equal(st, stored) {
		t.Fatalf("len %d off %d: VerifyPage changed the stored parity", len(data), off)
	}
	intact("VerifyPage", dataBuf, len(d))
	intact("VerifyPage", storedBuf, len(st))
}

// TestPageKernelsMatchWordwise walks every length from empty to a page
// and a line, at each of the eight alignments of the slice start, with
// a few flips of every kind scattered over data and stored parity.
func TestPageKernelsMatchWordwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 4096+lineBytes; n += 8 {
		data := make([]byte, n)
		rng.Read(data)
		stored := make([]byte, n/8)
		parityWordwise(stored, data)
		for k := 0; n > 0 && k < 1+n/512; k++ {
			w := rng.Intn(n / 8)
			switch rng.Intn(4) {
			case 0: // one data bit
				data[w*8+rng.Intn(8)] ^= 1 << uint(rng.Intn(8))
			case 1: // two data bits of one word
				data[w*8] ^= 0x41
			case 2: // one bit of the stored ECC byte
				stored[w] ^= 1 << uint(rng.Intn(8))
			case 3: // any stored byte at all
				stored[w] = uint8(rng.Intn(256))
			}
		}
		for off := 0; off < 8; off++ {
			checkKernels(t, data, stored, off)
		}
	}
}

// TestPageKernelFlipMatrix puts each kind of damage in each lane of a
// group — first, middle and last group — and in each word of the tail:
// one data bit, two data bits of the word, one bit of its ECC byte, and
// flips in two different words of the same group (both must be
// repaired: the lanes of a group do not share a verdict).
func TestPageKernelFlipMatrix(t *testing.T) {
	const groups, tailWords = 3, 5
	rng := rand.New(rand.NewSource(8))
	clean := make([]byte, groups*lineBytes+tailWords*8)
	rng.Read(clean)
	cleanPar := PageParity(clean)

	run := func(name string, wantC, wantU int, damage func(data, par []byte)) {
		t.Helper()
		data := append([]byte(nil), clean...)
		par := append([]byte(nil), cleanPar...)
		damage(data, par)
		checkKernels(t, data, par, 3)
		c, u := VerifyPage(data, par)
		if c != wantC || u != wantU {
			t.Fatalf("%s: VerifyPage = (%d, %d), want (%d, %d)", name, c, u, wantC, wantU)
		}
		if wantU == 0 && !bytes.Equal(data, clean) {
			t.Fatalf("%s: data not restored", name)
		}
	}
	words := len(clean) / 8
	for w := 0; w < words; w++ {
		// The words that share w's group (or, past the groups, the tail).
		first, n := w/8*8, 8
		if first == groups*8 {
			n = tailWords
		}
		bit := uint(rng.Intn(64))
		name := func(kind string) string { return fmt.Sprintf("word %d (lane %d) %s", w, w%8, kind) }
		run(name("one data bit"), 1, 0, func(data, _ []byte) {
			data[w*8+int(bit/8)] ^= 1 << (bit % 8)
		})
		run(name("two data bits"), 0, 1, func(data, _ []byte) {
			data[w*8+int(bit/8)] ^= 1 << (bit % 8)
			other := (bit + 1 + uint(rng.Intn(63))) % 64
			data[w*8+int(other/8)] ^= 1 << (other % 8)
		})
		run(name("one parity bit"), 0, 0, func(_, par []byte) {
			par[w] ^= 1 << (bit % 8)
		})
		for k := 1; k < n; k++ {
			v := first + (w-first+k)%n
			run(name(fmt.Sprintf("and word %d", v)), 2, 0, func(data, _ []byte) {
				data[w*8+int(bit/8)] ^= 1 << (bit % 8)
				data[v*8] ^= 0x80
			})
		}
		v := first + (w-first+1)%n
		run(name("one data bit, neighbour two"), 1, 1, func(data, _ []byte) {
			data[w*8+int(bit/8)] ^= 1 << (bit % 8)
			data[v*8+7] ^= 0x03
		})
	}
}

// FuzzPageKernelsMatchWordwise: any data, any stored parity (the true
// one XOR the fuzzer's bytes, so clean groups stay common), any flips
// (byte pairs: a bit index into data).
func FuzzPageKernelsMatchWordwise(f *testing.F) {
	page := make([]byte, 4096)
	rand.New(rand.NewSource(9)).Read(page)
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(page[:64], []byte{}, []byte{0, 0})
	f.Add(page[:200], []byte{0, 0, 0, 0x10, 0, 0, 0, 0, 0xff}, []byte{1, 2, 3, 4, 1, 3})
	f.Add(page, []byte{}, []byte{0x12, 0x34})
	f.Add(page[:4096-8], []byte{0x03}, []byte{0x7f, 0xff, 0x7f, 0xfe})
	f.Fuzz(func(t *testing.T, data, parity, flips []byte) {
		data = append([]byte(nil), data[:len(data)&^7]...)
		stored := make([]byte, len(data)/8)
		parityWordwise(stored, data)
		for i := range stored {
			if i < len(parity) {
				stored[i] ^= parity[i]
			}
		}
		for ; len(flips) >= 2 && len(data) > 0; flips = flips[2:] {
			bit := int(binary.LittleEndian.Uint16(flips)) % (len(data) * 8)
			data[bit/8] ^= 1 << uint(bit%8)
		}
		checkKernels(t, data, stored, len(parity)%8)
	})
}

func TestPanicsOnMisalignedInput(t *testing.T) {
	for _, f := range []func(){
		func() { PageParity(make([]byte, 7)) },
		func() { VerifyPage(make([]byte, 8), make([]byte, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("misaligned input did not panic")
				}
			}()
			f()
		}()
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		OK: "ok", Corrected: "corrected", ParityBitFlip: "parity-bit-flip",
		DoubleError: "double-error", Status(99): "invalid",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestPageKernelsDoNotAllocate(t *testing.T) {
	page := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(page)
	parity := make([]byte, 512)
	if n := testing.AllocsPerRun(100, func() { PageParityInto(parity, page) }); n != 0 {
		t.Errorf("PageParityInto: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { VerifyPage(page, parity) }); n != 0 {
		t.Errorf("VerifyPage: %v allocs/op, want 0", n)
	}
}

// Benchmark results go to package-level sinks: Encode is inlinable, and
// a discarded call is deleted by the compiler.
var (
	sinkByte uint8
	sinkWord uint64
	sinkInt  int
)

func BenchmarkEncodeWord(b *testing.B) {
	b.SetBytes(8)
	b.ReportAllocs()
	var acc uint8
	for i := 0; i < b.N; i++ {
		acc ^= Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
	sinkByte = acc
}

func BenchmarkDecodeWord(b *testing.B) {
	b.SetBytes(8)
	b.ReportAllocs()
	var acc uint64
	for i := 0; i < b.N; i++ {
		w := uint64(i) * 0x9e3779b97f4a7c15
		// One data-bit flip per word, so the correction path runs.
		fixed, _ := Decode(w^1<<uint(i&63), Encode(w))
		acc ^= fixed
	}
	sinkWord = acc
}

func BenchmarkPageParity4K(b *testing.B) {
	page := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(page)
	parity := make([]byte, 512)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageParityInto(parity, page)
	}
	sinkByte = parity[0]
}

func BenchmarkVerifyPage4K(b *testing.B) {
	clean := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(clean)
	parity := PageParity(clean)
	page := make([]byte, 4096)
	for _, bc := range []struct {
		name   string
		stride int // flip one bit every stride bytes; 0 = none
	}{
		{"clean", 0},
		{"one-flip-per-page", 4096}, // what the chaos plan's ecc-single produces
		{"one-flip-per-line", 64},   // every group takes the lane path
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// VerifyPage repairs in place, so every iteration
				// starts from a freshly corrupted copy.
				copy(page, clean)
				for off := 0; bc.stride > 0 && off < len(page); off += bc.stride {
					page[off] ^= 0x10
				}
				corrected, _ := VerifyPage(page, parity)
				sinkInt += corrected
			}
		})
	}
}

// Decode checks (and if needed corrects) one data word against its ECC
// bits: the word-level form of VerifyPage's loop body, which is what
// the tests and FuzzDecodeMatchesRef drive.
func Decode(data uint64, parity uint8) (uint64, Status) {
	return correct(data, Encode(data)^parity)
}
