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
// p | (1+popcount(p))&1<<7. XORing those per byte value gives encTab,
// and Encode is eight lookups instead of a walk over 72 positions.
// The same linearity makes the syndrome a re-encode: Encode(data) XOR
// the stored byte is the ECC byte of the error pattern alone, whose
// low seven bits are the flipped codeword position.

// posBit classifications of codeword positions that hold no data bit.
const (
	posCheck   = -1 // an ECC bit (position 0 or a power of two)
	posOutside = -2 // beyond position 71: no single flip produces it
)

var (
	// encTab[b][v] is the ECC byte of the word with byte b set to v.
	encTab [8][256]uint8
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
	for b := range encTab {
		for v := 1; v < 256; v++ {
			low := bits.TrailingZeros(uint(v))
			encTab[b][v] = encTab[b][v&(v-1)] ^ unit[b*8+low]
		}
	}
}

// Encode computes the 8 ECC bits for one 64-bit data word: bits 0-6
// are the Hamming check bits, bit 7 is the overall parity of the full
// 72-bit codeword.
//
//xfm:hotpath
func Encode(data uint64) uint8 {
	return encTab[0][uint8(data)] ^ encTab[1][uint8(data>>8)] ^
		encTab[2][uint8(data>>16)] ^ encTab[3][uint8(data>>24)] ^
		encTab[4][uint8(data>>32)] ^ encTab[5][uint8(data>>40)] ^
		encTab[6][uint8(data>>48)] ^ encTab[7][uint8(data>>56)]
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

// PageParityInto is PageParity into a caller-owned buffer of exactly
// len(data)/8 bytes.
//
//xfm:hotpath
func PageParityInto(dst, data []byte) {
	if len(data)%8 != 0 || len(dst) != len(data)/8 {
		panic("ecc: mismatched data/parity lengths")
	}
	for i := range dst {
		dst[i] = Encode(binary.LittleEndian.Uint64(data[i*8:]))
	}
}

// VerifyPage checks data against its parity bytes, correcting any
// single-bit errors in place. It returns the number of corrected
// words and the number of uncorrectable words.
//
//xfm:hotpath
func VerifyPage(data, parity []byte) (corrected, uncorrectable int) {
	if len(data)%8 != 0 || len(parity) != len(data)/8 {
		panic("ecc: mismatched data/parity lengths")
	}
	for i, p := range parity {
		word := binary.LittleEndian.Uint64(data[i*8:])
		s := Encode(word) ^ p
		if s == 0 {
			continue // clean word: the common case
		}
		switch fixed, st := correct(word, s); st {
		case Corrected:
			binary.LittleEndian.PutUint64(data[i*8:], fixed)
			corrected++
		case DoubleError:
			uncorrectable++
		}
	}
	return corrected, uncorrectable
}
