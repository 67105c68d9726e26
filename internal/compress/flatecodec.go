package compress

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// Flate wraps the standard library's DEFLATE implementation as a
// reference codec: it validates the from-scratch codecs' ratios and
// serves as the "hardware deflate" quality target (§2.1, §7).
//
// flate.Writer is a ~700 KiB allocation, so the hot path reuses
// writers and readers through per-codec pools (both support Reset).
type Flate struct {
	level int
	wpool sync.Pool // *flateEnc
	rpool sync.Pool // *flateDec
}

// flateEnc bundles a reusable flate writer with its output sink.
type flateEnc struct {
	w  *flate.Writer
	sw sliceWriter
}

// flateDec bundles a reusable flate reader with its input source.
type flateDec struct {
	r  io.ReadCloser
	br bytes.Reader
}

// sliceWriter appends written bytes to b, letting flate stream
// straight into the caller's dst without an intermediate buffer.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// NewFlate returns the reference codec at flate's default compression
// level.
func NewFlate() *Flate { return &Flate{level: flate.DefaultCompression} }

// Name implements Codec.
func (f *Flate) Name() string {
	if f.level == flate.DefaultCompression {
		return "flate"
	}
	return "flate-l" + itoa(f.level)
}

// Info implements Codec.
func (f *Flate) Info() CodecInfo {
	return CodecInfo{
		CompressCyclesPerByte:   15.0,
		DecompressCyclesPerByte: 5.0,
		TypicalRatio:            3.1,
	}
}

// MaxCompressedLen implements Codec.
func (f *Flate) MaxCompressedLen(n int) int {
	// flate stored blocks add 5 bytes per 64 KiB plus stream overhead.
	return n + n/65535*5 + 64
}

// Compress implements Codec.
func (f *Flate) Compress(dst, src []byte) []byte {
	dst = appendUvarint(dst, uint64(len(src)))
	enc, _ := f.wpool.Get().(*flateEnc)
	if enc == nil {
		enc = &flateEnc{}
		w, err := flate.NewWriter(&enc.sw, f.level)
		if err != nil {
			// Only possible for an invalid level, which the constructors
			// prevent; fall back to the default level.
			w, _ = flate.NewWriter(&enc.sw, flate.DefaultCompression)
		}
		enc.w = w
	}
	enc.sw.b = dst
	enc.w.Reset(&enc.sw)
	_, _ = enc.w.Write(src)
	_ = enc.w.Close()
	dst = enc.sw.b
	enc.sw.b = nil // do not retain the caller's buffer in the pool
	f.wpool.Put(enc)
	return dst
}

// Decompress implements Codec.
func (f *Flate) Decompress(dst, src []byte) ([]byte, error) {
	origLen, n, ok := readUvarint(src)
	if !ok {
		return dst, ErrCorrupt
	}
	dec, _ := f.rpool.Get().(*flateDec)
	if dec == nil {
		dec = &flateDec{}
		dec.r = flate.NewReader(&dec.br)
	}
	dec.br.Reset(src[n:])
	_ = dec.r.(flate.Resetter).Reset(&dec.br, nil)
	base := len(dst)
	out := Grow(dst, int(origLen))
	if _, err := io.ReadFull(dec.r, out[base:]); err != nil {
		f.rpool.Put(dec)
		return dst, ErrCorrupt
	}
	// A valid stream must end exactly here.
	var one [1]byte
	if m, _ := dec.r.Read(one[:]); m != 0 {
		f.rpool.Put(dec)
		return dst, ErrCorrupt
	}
	f.rpool.Put(dec)
	return out, nil
}
