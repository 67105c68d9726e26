// Package corpus generates the 16 deterministic synthetic corpora used
// by the Fig. 8 compression-ratio experiments. The paper compresses
// page-divided corpora (Calgary/Silesia-style files); this package
// substitutes generators that reproduce the structural properties LZ
// compression depends on — repeated dictionaries, local redundancy,
// field structure, and varying entropy — without shipping licensed
// corpus files.
package corpus

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Generator produces n deterministic bytes for a seed.
type Generator func(seed int64, n int) []byte

var generators = map[string]Generator{
	"text-english": EnglishText,
	"html":         HTML,
	"c-source":     CSource,
	"json-log":     JSONLog,
	"csv-table":    CSVTable,
	"xml-feed":     XMLFeed,
	"binary-code":  BinaryCode,
	"float-array":  FloatArray,
	"int-counters": IntCounters,
	"base64-blob":  Base64Blob,
	"sql-dump":     SQLDump,
	"syslog":       Syslog,
	"key-value":    KeyValue,
	"dna":          DNA,
	"sparse-zero":  SparseZero,
	"random":       Random,
}

// Names returns all corpus names, sorted.
func Names() []string {
	out := make([]string, 0, len(generators))
	for n := range generators {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns the generator registered under name.
func Get(name string) (Generator, error) {
	g, ok := generators[name]
	if !ok {
		return nil, fmt.Errorf("corpus: unknown corpus %q", name)
	}
	return g, nil
}

// Pages splits a corpus into 4 KiB pages, discarding a trailing
// partial page, mirroring the paper's "page-divided corpuses" (Fig. 8).
func Pages(data []byte, pageSize int) [][]byte {
	var out [][]byte
	for off := 0; off+pageSize <= len(data); off += pageSize {
		out = append(out, data[off:off+pageSize])
	}
	return out
}

var wordList = strings.Fields(`
the of and to in a is that for it as was with be by on not he this are
at from his they which or had we an you were her all she there their
one have each about how up out them then many some so these would other
into has more two like him time see could no make than first been its
who now people my made over did down only way find use may water long
little very after words called just where most know memory system page
data cache cold compress refresh bank row access control store far near
local swap rate cost energy power model device channel rank module`)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// EnglishText emits natural-language-like prose with a Zipfian word
// distribution and sentence structure.
func EnglishText(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	sentence := 0
	for len(b) < n {
		// Zipf-ish: favor early words.
		idx := int(float64(len(wordList)) * r.Float64() * r.Float64())
		w := wordList[idx]
		if sentence == 0 && len(w) > 0 {
			w = strings.ToUpper(w[:1]) + w[1:]
		}
		b = append(b, w...)
		sentence++
		if sentence > 6+r.Intn(10) {
			b = append(b, ". "...)
			sentence = 0
		} else {
			b = append(b, ' ')
		}
	}
	return b[:n]
}

// HTML emits markup-heavy hypertext.
func HTML(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	b = append(b, "<!DOCTYPE html><html><head><title>report</title></head><body>\n"...)
	for len(b) < n {
		switch r.Intn(4) {
		case 0:
			b = append(b, fmt.Sprintf("<div class=\"row-%d\"><span>%s</span></div>\n",
				r.Intn(100), wordList[r.Intn(len(wordList))])...)
		case 1:
			b = append(b, fmt.Sprintf("<a href=\"/item/%d\">%s %s</a>\n",
				r.Intn(10000), wordList[r.Intn(len(wordList))], wordList[r.Intn(len(wordList))])...)
		case 2:
			b = append(b, fmt.Sprintf("<p>%s</p>\n", EnglishText(int64(r.Int31()), 40+r.Intn(80)))...)
		case 3:
			b = append(b, fmt.Sprintf("<table><tr><td>%d</td><td>%d</td></tr></table>\n",
				r.Intn(1000), r.Intn(1000))...)
		}
	}
	return b[:n]
}

// CSource emits C-like source code.
func CSource(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	for len(b) < n {
		fn := r.Intn(1000)
		b = append(b, fmt.Sprintf("static int handle_%d(struct ctx *c, int flags) {\n", fn)...)
		for i := 0; i < 3+r.Intn(5); i++ {
			b = append(b, fmt.Sprintf("\tif (c->field_%d > %d) return -EINVAL;\n",
				r.Intn(16), r.Intn(256))...)
		}
		b = append(b, fmt.Sprintf("\treturn c->field_%d + %d;\n}\n\n", r.Intn(16), fn)...)
	}
	return b[:n]
}

// JSONLog emits newline-delimited JSON log records.
func JSONLog(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	ts := int64(1700000000)
	for len(b) < n {
		ts += int64(r.Intn(5))
		b = append(b, fmt.Sprintf(
			`{"ts":%d,"level":"%s","svc":"web-%d","msg":"%s","lat_ms":%d}`+"\n",
			ts, []string{"info", "warn", "error", "debug"}[r.Intn(4)],
			r.Intn(8), wordList[r.Intn(len(wordList))], r.Intn(500))...)
	}
	return b[:n]
}

// CSVTable emits a numeric CSV table with correlated columns.
func CSVTable(seed int64, n int) []byte {
	r := rng(seed)
	b := []byte("id,region,value,count,flag\n")
	id := 0
	for len(b) < n {
		id++
		b = append(b, fmt.Sprintf("%d,us-east-%d,%0.2f,%d,%t\n",
			id, r.Intn(4), 100*r.Float64(), r.Intn(50), r.Intn(2) == 0)...)
	}
	return b[:n]
}

// XMLFeed emits an RSS-like XML feed.
func XMLFeed(seed int64, n int) []byte {
	r := rng(seed)
	b := []byte("<?xml version=\"1.0\"?><feed>\n")
	for len(b) < n {
		b = append(b, fmt.Sprintf(
			"  <entry><id>%d</id><title>%s %s</title><updated>2023-10-%02dT12:00:00Z</updated></entry>\n",
			r.Intn(100000), wordList[r.Intn(len(wordList))],
			wordList[r.Intn(len(wordList))], 1+r.Intn(28))...)
	}
	return b[:n]
}

// BinaryCode emits machine-code-like bytes: opcode-ish patterns with
// small immediate fields and repeated prologue/epilogue sequences.
func BinaryCode(seed int64, n int) []byte {
	r := rng(seed)
	prologue := []byte{0x55, 0x48, 0x89, 0xe5, 0x48, 0x83, 0xec, 0x20}
	epilogue := []byte{0x48, 0x83, 0xc4, 0x20, 0x5d, 0xc3}
	ops := [][]byte{{0x48, 0x8b}, {0x48, 0x89}, {0x83, 0xc0}, {0xe8}, {0xeb}, {0x0f, 0x84}}
	var b []byte
	for len(b) < n {
		b = append(b, prologue...)
		for i := 0; i < 8+r.Intn(24); i++ {
			op := ops[r.Intn(len(ops))]
			b = append(b, op...)
			b = append(b, byte(r.Intn(64)))
		}
		b = append(b, epilogue...)
	}
	return b[:n]
}

// FloatArray emits little-endian float64 sensor-like readings with a
// smooth trend (high redundancy in exponent bytes).
func FloatArray(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	v := 20.0
	for len(b) < n {
		v += r.Float64() - 0.5
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		b = append(b, buf[:]...)
	}
	return b[:n]
}

// IntCounters emits little-endian int64 counters with small deltas
// (timestamps, sequence numbers): mostly-zero high bytes.
func IntCounters(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	v := int64(1 << 40)
	for len(b) < n {
		v += int64(r.Intn(1000))
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		b = append(b, buf[:]...)
	}
	return b[:n]
}

// Base64Blob emits base64-looking text (6-bit entropy per byte).
func Base64Blob(seed int64, n int) []byte {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	r := rng(seed)
	b := make([]byte, n)
	for i := range b {
		if i%77 == 76 {
			b[i] = '\n'
		} else {
			b[i] = alphabet[r.Intn(64)]
		}
	}
	return b
}

// SQLDump emits INSERT-statement dumps.
func SQLDump(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	id := 1000
	for len(b) < n {
		id++
		b = append(b, fmt.Sprintf(
			"INSERT INTO users (id, name, email, active) VALUES (%d, '%s', '%s@example.com', %d);\n",
			id, wordList[r.Intn(len(wordList))], wordList[r.Intn(len(wordList))], r.Intn(2))...)
	}
	return b[:n]
}

// Syslog emits RFC3164-style log lines.
func Syslog(seed int64, n int) []byte {
	r := rng(seed)
	var b []byte
	for len(b) < n {
		b = append(b, fmt.Sprintf(
			"Oct %2d 12:%02d:%02d host%d kernel: [%d.%06d] %s: %s limit=%d\n",
			1+r.Intn(28), r.Intn(60), r.Intn(60), r.Intn(4),
			r.Intn(100000), r.Intn(1000000),
			[]string{"oom", "net", "sched", "mm"}[r.Intn(4)],
			wordList[r.Intn(len(wordList))], r.Intn(4096))...)
	}
	return b[:n]
}

// KeyValue emits config-file key=value text with a small key universe.
func KeyValue(seed int64, n int) []byte {
	r := rng(seed)
	keys := []string{"timeout_ms", "retries", "cache_size", "endpoint", "region",
		"log_level", "batch", "max_conn", "tls", "pool"}
	var b []byte
	for len(b) < n {
		b = append(b, fmt.Sprintf("%s=%d\n", keys[r.Intn(len(keys))], r.Intn(10000))...)
	}
	return b[:n]
}

// DNA emits 4-symbol genomic text: low entropy (2 bits/byte) but no
// long-range structure.
func DNA(seed int64, n int) []byte {
	r := rng(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[r.Intn(4)]
	}
	return b
}

// SparseZero emits mostly-zero pages with scattered nonzero runs
// (freshly-allocated heap pages).
func SparseZero(seed int64, n int) []byte {
	r := rng(seed)
	b := make([]byte, n)
	writes := n / 64
	for i := 0; i < writes; i++ {
		off := r.Intn(n)
		run := 1 + r.Intn(16)
		for k := 0; k < run && off+k < n; k++ {
			b[off+k] = byte(r.Intn(256))
		}
	}
	return b
}

// Random emits uniformly random (incompressible) bytes.
func Random(seed int64, n int) []byte {
	b := make([]byte, n)
	rng(seed).Read(b)
	return b
}
