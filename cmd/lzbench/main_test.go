package main

import (
	"testing"

	"xfm/internal/compress"
)

// lyingCodec decodes to the right number of bytes, the last one wrong.
type lyingCodec struct{ compress.Codec }

func (l lyingCodec) Decompress(dst, src []byte) ([]byte, error) {
	out, err := l.Codec.Decompress(dst, src)
	if len(out) > len(dst) {
		out[len(out)-1] ^= 1
	}
	return out, err
}

func TestBenchCodecComparesBytes(t *testing.T) {
	chunks := [][]byte{[]byte("hello hello hello hello"), []byte("second chunk, second chunk")}
	if _, _, _, err := benchCodec(compress.NewLZFast(), chunks); err != nil {
		t.Fatalf("honest codec: %v", err)
	}
	if _, _, _, err := benchCodec(lyingCodec{compress.NewLZFast()}, chunks); err == nil {
		t.Fatal("a decoder that returns the right number of wrong bytes got a throughput row")
	}
}
