// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with stream_test.go.

package compress

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Streaming wrappers: frame a byte stream into independently
// compressed blocks so any Codec can serve io.Reader/io.Writer
// pipelines (trace files, corpus dumps). Each frame is
// [uvarint compressedLen][compressed block]; blocks are BlockSize
// bytes of plaintext except the last. Framing at page granularity
// mirrors how the SFM stores data, so stream ratios match page
// ratios.

// DefaultBlockSize is the plaintext block size of the stream format.
const DefaultBlockSize = 4096

// StreamWriter compresses written data block by block.
type StreamWriter struct {
	w     io.Writer
	codec Codec
	block []byte
	buf   []byte
	comp  []byte
	err   error
}

// NewStreamWriter returns a writer compressing onto w with the codec
// at DefaultBlockSize granularity.
func NewStreamWriter(w io.Writer, c Codec) *StreamWriter {
	return &StreamWriter{w: w, codec: c, block: make([]byte, 0, DefaultBlockSize)}
}

// Write implements io.Writer.
func (s *StreamWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := len(p)
	for len(p) > 0 {
		room := DefaultBlockSize - len(s.block)
		take := room
		if take > len(p) {
			take = len(p)
		}
		s.block = append(s.block, p[:take]...)
		p = p[take:]
		if len(s.block) == DefaultBlockSize {
			if err := s.flushBlock(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

func (s *StreamWriter) flushBlock() error {
	if len(s.block) == 0 {
		return nil
	}
	s.comp = s.codec.Compress(s.comp[:0], s.block)
	s.buf = binary.AppendUvarint(s.buf[:0], uint64(len(s.comp)))
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
		return err
	}
	if _, err := s.w.Write(s.comp); err != nil {
		s.err = err
		return err
	}
	s.block = s.block[:0]
	return nil
}

// Close flushes the final partial block. It does not close the
// underlying writer.
func (s *StreamWriter) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.flushBlock()
}

// StreamReader decompresses a stream produced by StreamWriter.
type StreamReader struct {
	r     *byteReader
	codec Codec
	block []byte
	pos   int
	comp  []byte
	err   error
}

// byteReader adapts an io.Reader for binary.ReadUvarint while keeping
// bulk reads efficient.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

// NewStreamReader returns a reader decompressing from r with the
// codec.
func NewStreamReader(r io.Reader, c Codec) *StreamReader {
	return &StreamReader{r: &byteReader{r: r}, codec: c}
}

// Read implements io.Reader.
func (s *StreamReader) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	total := 0
	for len(p) > 0 {
		if s.pos == len(s.block) {
			if err := s.nextBlock(); err != nil {
				if total > 0 && err == io.EOF {
					return total, nil
				}
				s.err = err
				return total, err
			}
		}
		n := copy(p, s.block[s.pos:])
		s.pos += n
		p = p[n:]
		total += n
	}
	return total, nil
}

func (s *StreamReader) nextBlock() error {
	clen, err := binary.ReadUvarint(s.r)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return ErrCorrupt
		}
		return err
	}
	if clen > uint64(DefaultBlockSize)*2+64 {
		return fmt.Errorf("%w: frame length %d", ErrCorrupt, clen)
	}
	if cap(s.comp) < int(clen) {
		s.comp = make([]byte, clen)
	}
	s.comp = s.comp[:clen]
	if _, err := io.ReadFull(s.r, s.comp); err != nil {
		return ErrCorrupt
	}
	s.block, err = s.codec.Decompress(s.block[:0], s.comp)
	if err != nil {
		return err
	}
	if len(s.block) > DefaultBlockSize {
		return ErrCorrupt
	}
	s.pos = 0
	return nil
}
