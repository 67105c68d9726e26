package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedShape is one (seed, size) call of the byte oracle.
type pinnedShape struct {
	seed int64
	n    int
}

// pinnedShapes are the calls TestCorpusBytesPinned digests, in order:
// every seed at every size, then the benchmark's working-set shape
// (256 pages per generator at seed 1) and Fig. 8's (512 KiB at seed 1).
func pinnedShapes() []pinnedShape {
	var out []pinnedShape
	for _, seed := range []int64{0, 1, 7, 42, -5, 1 << 40} {
		for _, n := range []int{1, 39, 100, 4096, 12288, 1 << 20} {
			out = append(out, pinnedShape{seed, n})
		}
	}
	return append(out, pinnedShape{1, 256 * 4096}, pinnedShape{1, 512 << 10})
}

// pinnedDigest is the first 16 hex digits of the SHA-256 over every
// pinned call of g, the outputs concatenated (the sizes are fixed, so
// the concatenation is unambiguous).
func pinnedDigest(g Generator) string {
	h := sha256.New()
	for _, s := range pinnedShapes() {
		h.Write(g(s.seed, s.n))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// corpusDigests were recorded on the fmt-based generators. Every corpus
// byte is a contract: Fig. 8's ratios, the benchmark's working set and
// every recording compress these bytes, so a changed digest is a
// behaviour change, not a re-pin.
var corpusDigests = map[string]string{
	"base64-blob":  "6c22b9bbfc334abc",
	"binary-code":  "e34e69a8a6ae5970",
	"c-source":     "58a0558c25fe5b8e",
	"csv-table":    "a86bd5cc4fbbb2b3",
	"dna":          "add8dfab64997d26",
	"float-array":  "d8465868e0028a42",
	"html":         "daa2fd4b26f64141",
	"int-counters": "054d379dce09851a",
	"json-log":     "1fbdf8f2b854440d",
	"key-value":    "1b3787f8dd4d32b9",
	"random":       "4ca9387b86dc4416",
	"sparse-zero":  "68436a86e812cc80",
	"sql-dump":     "0b8e0596250d2e8a",
	"syslog":       "6fa851daa61e3ef9",
	"text-english": "9c87a78a7cd53576",
	"xml-feed":     "816c078b33e7f29d",
}

func TestCorpusBytesPinned(t *testing.T) {
	for _, name := range Names() {
		g, _ := Get(name)
		if got, want := pinnedDigest(g), corpusDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
		// A generator must build every call afresh: scribbling over one
		// result must not show up in the next call with the same arguments.
		first := g(1, 256*4096)
		sum := sha256.Sum256(first)
		for i := range first {
			first[i] ^= 0xa5
		}
		if sha256.Sum256(g(1, 256*4096)) != sum {
			t.Errorf("%s: a mutated result leaked into the next call", name)
		}
	}
}
