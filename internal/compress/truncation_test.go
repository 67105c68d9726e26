package compress

import (
	"bytes"
	"fmt"
	"testing"

	"xfm/internal/corpus"
)

// Truncation tests: a compressed stream cut short at ANY byte boundary
// must be rejected with an error — never a panic, never a silent
// partial page. The swap-in path leans on this: a torn or truncated
// far memory read surfaces as a typed decode error that leaves the page
// stored for a retry, so the property is a load-bearing robustness
// invariant, not just decoder hygiene.

// truncationInputs is the page spread used for the all-prefix sweep:
// structural shapes plus real experiment-corpus pages.
func truncationInputs() map[string][]byte {
	in := map[string][]byte{
		"empty":      {},
		"one-byte":   {0x41},
		"short-text": []byte("hello hello hello hello"),
		"all-zero":   bytes.Repeat([]byte{0}, 4096),
		"incompress": corpus.Random(7, 512),
		"periodic":   bytes.Repeat([]byte("xy"), 2048),
		"kv-page":    corpus.KeyValue(3, 4096),
		"csv-page":   corpus.CSVTable(5, 4096),
	}
	return in
}

// testTruncatedPrefixesError runs the all-prefix-lengths sweep for one
// codec: every proper prefix of every valid stream must error, and the
// full stream must still round-trip. The prefix is passed as a
// three-index slice so any decoder append past the cut reallocates
// instead of scribbling on the tail of the original stream.
func testTruncatedPrefixesError(t *testing.T, codec Codec) {
	t.Helper()
	for name, in := range truncationInputs() {
		t.Run(name, func(t *testing.T) {
			stream := codec.Compress(nil, in)
			out, err := codec.Decompress(nil, stream)
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("full stream must round-trip before truncating: err=%v", err)
			}
			for cut := 0; cut < len(stream); cut++ {
				prefix := stream[:cut:cut]
				got, err := codec.Decompress(nil, prefix)
				if err == nil {
					t.Fatalf("prefix [0:%d) of %d-byte stream decoded without error (%d bytes out, input %d bytes)",
						cut, len(stream), len(got), len(in))
				}
			}
		})
	}
}

func TestLZFastTruncatedPrefixesError(t *testing.T) {
	testTruncatedPrefixesError(t, NewLZFast())
}

func TestXDeflateTruncatedPrefixesError(t *testing.T) {
	testTruncatedPrefixesError(t, NewXDeflate())
}

// TestTruncatedPrefixesAgreeWithReference pins that the word-wise
// decoders and the byte-serial PR 2 references reject the same
// truncations: corrupt-input behaviour is part of the wire contract,
// and a decoder that starts accepting a prefix the other rejects is a
// compatibility drift even if both are "safe".
func TestTruncatedPrefixesAgreeWithReference(t *testing.T) {
	codecs := []struct {
		name string
		new  Codec
		ref  interface {
			Decompress(dst, src []byte) ([]byte, error)
		}
	}{
		{"lzfast", NewLZFast(), newRefLZFast()},
		{"xdeflate", NewXDeflate(), newRefXDeflate()},
	}
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			for name, in := range truncationInputs() {
				stream := c.new.Compress(nil, in)
				for cut := 0; cut < len(stream); cut++ {
					prefix := stream[:cut:cut]
					_, errNew := c.new.Decompress(nil, prefix)
					_, errRef := c.ref.Decompress(nil, prefix)
					if (errNew == nil) != (errRef == nil) {
						t.Fatalf("%s: decoders disagree on prefix [0:%d): new err=%v, reference err=%v",
							name, cut, errNew, errRef)
					}
				}
			}
		})
	}
}

// TestTruncationErrorsAreErrors documents that truncation failures are
// plain decode errors the callers branch on — non-nil, with a message.
func TestTruncationErrorsAreErrors(t *testing.T) {
	for _, c := range []struct {
		name  string
		codec Codec
	}{{"lzfast", NewLZFast()}, {"xdeflate", NewXDeflate()}} {
		stream := c.codec.Compress(nil, []byte("truncate me truncate me"))
		for _, cut := range []int{0, 1, len(stream) / 2, len(stream) - 1} {
			_, err := c.codec.Decompress(nil, stream[:cut:cut])
			if err == nil || err.Error() == "" {
				t.Fatalf("%s: prefix [0:%d) must yield a descriptive error, got %v", c.name, cut, err)
			}
			if msg := fmt.Sprintf("%v", err); msg == "" {
				t.Fatalf("%s: error must format non-empty", c.name)
			}
		}
	}
}
