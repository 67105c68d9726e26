package compress

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

func streamRoundTrip(t *testing.T, c Codec, in []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, c)
	// Write in awkward chunk sizes to exercise block boundaries.
	for off := 0; off < len(in); {
		n := 1000
		if off+n > len(in) {
			n = len(in) - off
		}
		if m, err := w.Write(in[off : off+n]); err != nil || m != n {
			t.Fatalf("write: %d, %v", m, err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(NewStreamReader(&buf, c))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("stream framing test "), 500),
		make([]byte, 4096),      // exactly one block
		make([]byte, 4096*3+17), // partial tail
		func() []byte { // random
			b := make([]byte, 10000)
			rng.Read(b)
			return b
		}(),
	}
	for _, c := range []Codec{NewLZFast(), NewXDeflate()} {
		for i, in := range inputs {
			out := streamRoundTrip(t, c, in)
			if !bytes.Equal(out, in) {
				t.Errorf("%s input %d: round trip mismatch (%d vs %d bytes)",
					c.Name(), i, len(out), len(in))
			}
		}
	}
}

func TestStreamCompresses(t *testing.T) {
	in := bytes.Repeat([]byte("key=value;"), 5000)
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, NewLZFast())
	w.Write(in)
	w.Close()
	if buf.Len() >= len(in)/2 {
		t.Errorf("stream output %d bytes for %d of repetitive input", buf.Len(), len(in))
	}
}

func TestStreamReaderSmallReads(t *testing.T) {
	in := []byte(lorem())
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, NewXDeflate())
	w.Write(in)
	w.Close()
	r := NewStreamReader(&buf, NewXDeflate())
	var out []byte
	tmp := make([]byte, 7) // awkward read size
	for {
		n, err := r.Read(tmp)
		out = append(out, tmp[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out, in) {
		t.Fatal("small-read round trip mismatch")
	}
}

func lorem() string {
	s := ""
	for i := 0; i < 300; i++ {
		s += "the quick brown fox jumps over the lazy dog. "
	}
	return s
}

func TestStreamReaderCorrupt(t *testing.T) {
	in := bytes.Repeat([]byte("abc"), 3000)
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, NewLZFast())
	w.Write(in)
	w.Close()
	data := buf.Bytes()
	// Truncate mid-frame.
	if _, err := io.ReadAll(NewStreamReader(bytes.NewReader(data[:len(data)/2]), NewLZFast())); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupt a frame length to something absurd.
	bad := append([]byte{0xff, 0xff, 0xff, 0x7f}, data...)
	if _, err := io.ReadAll(NewStreamReader(bytes.NewReader(bad), NewLZFast())); err == nil {
		t.Error("absurd frame length accepted")
	}
}

func TestStreamWriterAfterError(t *testing.T) {
	w := NewStreamWriter(failWriter{}, NewLZFast())
	w.Write(make([]byte, 8192)) // forces a flush into the failing sink
	if err := w.Close(); err == nil {
		t.Error("error not sticky")
	}
	if _, err := w.Write([]byte("more")); err == nil {
		t.Error("write after error succeeded")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func BenchmarkStreamWrite(b *testing.B) {
	in := bytes.Repeat([]byte("benchmark stream payload "), 2000)
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		w := NewStreamWriter(io.Discard, NewLZFast())
		w.Write(in)
		w.Close()
	}
}
