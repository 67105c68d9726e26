// Package ecc implements side-band SECDED (single-error-correcting,
// double-error-detecting) ECC as used on x72 DDR DIMMs (§4.1 of the
// paper). The NMA sits between the DRAM chips and the memory
// controller, so it reads error-free data (on-die ECC) and does not
// need to *check* the side-band code — but it must *regenerate* the
// parity bytes when writing compressed data back, "so the memory
// controller can perform side-band ECC error detection and
// correction".
//
// The code is the classic extended Hamming (72,64): seven Hamming
// check bits at power-of-two codeword positions plus one overall
// parity bit, protecting each 64-bit data word with 8 ECC bits — the
// x72 DIMM layout (8 data chips + 1 ECC chip).
package ecc

import (
	"encoding/binary"
	"math/bits"
)

// Status is the outcome of checking one word against its ECC bits.
type Status int

// Check outcomes.
const (
	OK            Status = iota // no error
	Corrected                   // single-bit error corrected
	ParityBitFlip               // error in the ECC bits themselves, data intact
	DoubleError                 // uncorrectable double-bit error detected
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case ParityBitFlip:
		return "parity-bit-flip"
	case DoubleError:
		return "double-error"
	default:
		return "invalid"
	}
}

// The codeword has 72 positions: position 0 holds the overall parity
// bit, positions 1, 2, 4, 8, 16, 32, 64 the seven Hamming check bits,
// and the other 64 positions up to 71 the data bits in ascending order.
//
// The code is linear over GF(2): the ECC byte of a word is the XOR of
// the ECC bytes of its set bits. A data bit at position p toggles the
// check bits named by the set bits of p, and the overall parity once
// for itself and once per toggled check bit, so its ECC byte is
// p | (1+popcount(p))&1<<7. XORing those per slice value gives encTab,
// and Encode is six lookups — the word cut into 11/11/11/11/10/10-bit
// slices, 10 KiB of tables — instead of a walk over 72 positions.
// The same linearity makes the syndrome a re-encode: Encode(data) XOR
// the stored byte is the ECC byte of the error pattern alone, whose
// low seven bits are the flipped codeword position.

// posBit classifications of codeword positions that hold no data bit.
const (
	posCheck   = -1 // an ECC bit (position 0 or a power of two)
	posOutside = -2 // beyond position 71: no single flip produces it
)

// The slices of a data word, low bit first: four of 11 bits, two of 10.
// Every index below is masked (or shifted) into its table's length, so
// a lookup carries no bounds check.
const (
	wideBits, wide     = 11, 1 << wideBits
	narrowBits, narrow = 10, 1 << narrowBits

	shift1 = wideBits
	shift2 = 2 * wideBits
	shift3 = 3 * wideBits
	shift4 = 4 * wideBits
	shift5 = 4*wideBits + narrowBits
)

var (
	// encTab.sN[v] is the ECC byte of the word with slice N set to v.
	encTab struct {
		s0, s1, s2, s3 [wide]uint8
		s4, s5         [narrow]uint8
	}
	// posBit maps a codeword position to its data bit index, or to
	// posCheck/posOutside.
	posBit [128]int8
)

func init() {
	var unit [64]uint8 // ECC byte of the word with only bit i set
	for pos, i := 0, 0; pos < len(posBit); pos++ {
		switch {
		case pos&(pos-1) == 0:
			posBit[pos] = posCheck
		case i == 64:
			posBit[pos] = posOutside
		default:
			posBit[pos] = int8(i)
			unit[i] = uint8(pos) | uint8(1+bits.OnesCount(uint(pos)))&1<<7
			i++
		}
	}
	for _, s := range []struct {
		tab   []uint8
		shift int
	}{
		{encTab.s0[:], 0}, {encTab.s1[:], shift1}, {encTab.s2[:], shift2},
		{encTab.s3[:], shift3}, {encTab.s4[:], shift4}, {encTab.s5[:], shift5},
	} {
		for v := 1; v < len(s.tab); v++ {
			low := bits.TrailingZeros(uint(v))
			s.tab[v] = s.tab[v&(v-1)] ^ unit[s.shift+low]
		}
	}
}

// Encode computes the 8 ECC bits for one 64-bit data word: bits 0-6
// are the Hamming check bits, bit 7 is the overall parity of the full
// 72-bit codeword.
func Encode(data uint64) uint8 {
	return encTab.s0[data%wide] ^ encTab.s1[data>>shift1%wide] ^
		encTab.s2[data>>shift2%wide] ^ encTab.s3[data>>shift3%wide] ^
		encTab.s4[data>>shift4%narrow] ^ encTab.s5[data>>shift5]
}

// correct resolves a syndrome byte s = Encode(data) ^ stored parity:
// s&0x7f is the Hamming syndrome and the parity of s is the overall
// parity test (the stored check bits enter the codeword parity, and
// they differ from the recomputed ones exactly in s&0x7f).
func correct(data uint64, s uint8) (uint64, Status) {
	switch {
	case s == 0:
		return data, OK
	case bits.OnesCount8(s)&1 == 0:
		// Nonzero syndrome with even overall parity: two errors.
		return data, DoubleError
	}
	// Odd overall parity: a single flip at codeword position s&0x7f.
	switch b := posBit[s&0x7f]; b {
	case posCheck:
		return data, ParityBitFlip // an ECC bit flipped; data is intact
	case posOutside:
		return data, DoubleError
	default:
		return data ^ 1<<uint(b), Corrected
	}
}

// PageParity computes one ECC byte per 8 data bytes for a buffer whose
// length is a multiple of 8 — the side-band parity the NMA must
// regenerate on write-back (§4.1). It panics on misaligned input,
// which indicates a programming error (pages are 4 KiB).
func PageParity(data []byte) []byte {
	if len(data)%8 != 0 {
		panic("ecc: data length not a multiple of 8")
	}
	out := make([]byte, len(data)/8)
	PageParityInto(out, data)
	return out
}

// The page kernels take one 64-byte line — eight words, the eight ECC
// bytes of one 8-byte group of parity — per step: the array conversion
// proves every word load in bounds at once, and the group's ECC bytes
// are formed in a register, so parity moves as one word per line.
const lineBytes, groupBytes = 64, 8

// lineECC returns the ECC bytes of a line's eight words, word i's in
// byte i.
func lineECC(line *[lineBytes]byte) uint64 {
	return uint64(Encode(binary.LittleEndian.Uint64(line[0:]))) |
		uint64(Encode(binary.LittleEndian.Uint64(line[8:])))<<8 |
		uint64(Encode(binary.LittleEndian.Uint64(line[16:])))<<16 |
		uint64(Encode(binary.LittleEndian.Uint64(line[24:])))<<24 |
		uint64(Encode(binary.LittleEndian.Uint64(line[32:])))<<32 |
		uint64(Encode(binary.LittleEndian.Uint64(line[40:])))<<40 |
		uint64(Encode(binary.LittleEndian.Uint64(line[48:])))<<48 |
		uint64(Encode(binary.LittleEndian.Uint64(line[56:])))<<56
}

// PageParityInto is PageParity into a caller-owned buffer of exactly
// len(data)/8 bytes.
func PageParityInto(dst, data []byte) {
	if len(data)%8 != 0 || len(dst) != len(data)/8 {
		panic("ecc: mismatched data/parity lengths")
	}
	for len(data) >= lineBytes && len(dst) >= groupBytes {
		binary.LittleEndian.PutUint64(dst, lineECC((*[lineBytes]byte)(data)))
		data, dst = data[lineBytes:], dst[groupBytes:]
	}
	for i := range dst {
		dst[i] = Encode(binary.LittleEndian.Uint64(data[i*8:]))
	}
}

// VerifyPage checks data against its parity bytes, correcting any
// single-bit errors in place. It returns the number of corrected
// words and the number of uncorrectable words.
func VerifyPage(data, parity []byte) (corrected, uncorrectable int) {
	if len(data)%8 != 0 || len(parity) != len(data)/8 {
		panic("ecc: mismatched data/parity lengths")
	}
	for len(data) >= lineBytes && len(parity) >= groupBytes {
		line := (*[lineBytes]byte)(data)
		// Byte i of the difference is word i's syndrome.
		if s := lineECC(line) ^ binary.LittleEndian.Uint64(parity); s != 0 {
			c, u := correctWords(line[:], s)
			corrected, uncorrectable = corrected+c, uncorrectable+u
		}
		data, parity = data[lineBytes:], parity[groupBytes:]
	}
	for i, p := range parity {
		if s := Encode(binary.LittleEndian.Uint64(data[i*8:])) ^ p; s != 0 {
			c, u := correctWords(data[i*8:], uint64(s))
			corrected, uncorrectable = corrected+c, uncorrectable+u
		}
	}
	return corrected, uncorrectable
}

// correctWords resolves the syndromes of up to eight consecutive words
// (word i's in byte i of syndromes; a zero byte is a clean word),
// repairing single-bit errors in place.
func correctWords(words []byte, syndromes uint64) (corrected, uncorrectable int) {
	for off := 0; syndromes != 0; off, syndromes = off+8, syndromes>>8 {
		switch fixed, st := correct(binary.LittleEndian.Uint64(words[off:]), uint8(syndromes)); st {
		case Corrected:
			binary.LittleEndian.PutUint64(words[off:], fixed)
			corrected++
		case DoubleError:
			uncorrectable++
		}
	}
	return corrected, uncorrectable
}
