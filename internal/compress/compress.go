// Package compress provides the page-compression codecs used by the SFM
// stack: a from-scratch byte-oriented LZ codec ("lzfast", LZO/LZ4-class),
// and a from-scratch LZ77+Huffman codec ("xdeflate", DEFLATE-class).
// There is no codec registry: each caller builds the codec it runs
// (NewLZFast, NewXDeflate, NewXDeflateWindow, ...).
//
// The paper's SFM control plane uses lzo and zstd in production (§2.1) and
// the XFM accelerator implements Deflate (§7). The cost model (§3) needs
// per-codec cycles-per-byte figures; these are attached to each codec as
// CodecInfo and calibrated so the average matches the paper's
// CCPerGB ≈ 7.65e9 cycles per GB.
package compress

import "errors"

// Codec compresses and decompresses byte buffers (OS pages in the SFM
// use case). Implementations must be deterministic and must round-trip
// exactly.
type Codec interface {
	// Name returns the codec's name (e.g. "lzfast", "xdeflate-w1024").
	Name() string
	// Compress appends the compressed form of src to dst and returns
	// the extended slice. Compress never fails: incompressible input
	// is stored in an escape form that grows by a bounded overhead.
	Compress(dst, src []byte) []byte
	// Decompress appends the decompressed form of src to dst and
	// returns the extended slice, or an error for corrupt input.
	Decompress(dst, src []byte) ([]byte, error)
	// MaxCompressedLen bounds the compressed size for an input of n
	// bytes.
	MaxCompressedLen(n int) int
	// Info reports the codec's modeling constants.
	Info() CodecInfo
}

// CodecInfo carries the analytical-model constants for a codec.
type CodecInfo struct {
	// CompressCyclesPerByte is the modeled CPU cost of compression.
	CompressCyclesPerByte float64
	// DecompressCyclesPerByte is the modeled CPU cost of decompression.
	DecompressCyclesPerByte float64
}

// ErrCorrupt is returned by Decompress when the input stream is not a
// valid compressed stream.
var ErrCorrupt = errors.New("compress: corrupt input")
