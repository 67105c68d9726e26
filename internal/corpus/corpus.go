// Package corpus generates the 16 deterministic synthetic corpora used
// by the Fig. 8 compression-ratio experiments. The paper compresses
// page-divided corpora (Calgary/Silesia-style files); this package
// substitutes generators that reproduce the structural properties LZ
// compression depends on — repeated dictionaries, local redundancy,
// field structure, and varying entropy — without shipping licensed
// corpus files.
//
// Every byte a generator returns is pinned by TestCorpusBytesPinned:
// Fig. 8's ratios, the benchmark's working set and every recording
// compress these bytes, so changing one is a contract change. The
// generators append records straight into one pre-sized buffer (no
// fmt, no per-record strings) and keep each draw in a fixed order. The draws come from source
// (source.go), which replays math/rand's stream for a seed draw for
// draw from a register of its own: rngCooked is recovered from
// math/rand at the first Seed, a register word is seeded only when a
// draw first reads it, and the hot draws inline. HTML draws each
// paragraph inline, in the layout pass, from a second source it
// re-seeds. Nothing but the seeding tables is kept between calls.
package corpus

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
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
	if len(data) < pageSize {
		return nil
	}
	out := make([][]byte, 0, len(data)/pageSize)
	for off := 0; off+pageSize <= len(data); off += pageSize {
		out = append(out, data[off:off+pageSize])
	}
	return out
}

// words is the vocabulary of the text generators. It is an array, so
// that a draw over its length divides by a constant.
var words = [116]string(strings.Fields(`
the of and to in a is that for it as was with be by on not he this are
at from his they which or had we an you were her all she there their
one have each about how up out them then many some so these would other
into has more two like him time see could no make than first been its
who now people my made over did down only way find use may water long
little very after words called just where most know memory system page
data cache cold compress refresh bank row access control store far near
local swap rate cost energy power model device channel rank module`))

// recordSlack is how far past n the last record may reach before a
// generator cuts its result to n bytes: longer than any one record (a
// whole C function; HTML's header plus a paragraph).
const recordSlack = 512

// buf returns an empty buffer with room for n bytes and one record, so
// a generator appends into it without regrowing.
func buf(n int) []byte { return make([]byte, 0, n+recordSlack) }

func word(r *source) string { return words[r.Intn(len(words))] }

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendPadded appends v ≥ 0 in decimal, left-padded with pad to width
// digits: fmt's %02d and %06d with pad '0', %2d with pad ' '.
func appendPadded(b []byte, v, width int, pad byte) []byte {
	for lim := 10; width > 1; width, lim = width-1, lim*10 {
		if v < lim {
			b = append(b, pad)
		}
	}
	return appendInt(b, v)
}

// appendCents appends v ≥ 0 with two decimals, the bytes
// strconv.AppendFloat(b, v, 'f', 2, 64) appends, for v < 2⁵²: v·100
// rounded from v's exact binary value mant·2⁻ˢʰⁱᶠᵗ to the nearest
// integer, a tie to the even one.
func appendCents(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	mant, exp := bits&(1<<52-1), int(bits>>52)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	var q uint64 // v·100, rounded; 0 when shift ≥ 64, as v·100 < 2⁶⁰⁻⁶⁴
	if shift := 1075 - exp; shift < 64 {
		c := mant * 100
		q = c >> shift
		rem, half := c&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	b = appendInt(b, int(q/100))
	return append(b, '.', byte('0'+q/10%10), byte('0'+q%10))
}

// EnglishText emits natural-language-like prose with a Zipfian word
// distribution and sentence structure.
func EnglishText(seed int64, n int) []byte {
	return appendEnglish(buf(n), rng(seed), n)
}

// appendEnglish appends exactly n bytes of EnglishText prose drawn from
// r. It may write up to one word past them into dst's spare capacity
// before cutting back, so dst must not share that capacity with live
// bytes.
func appendEnglish(dst []byte, r *source, n int) []byte {
	end := len(dst) + n
	sentence := 0
	for len(dst) < end {
		// Zipf-ish: favor early words.
		w := words[int(float64(len(words))*r.Float64()*r.Float64())]
		start := len(dst)
		dst = append(dst, w...)
		if c := dst[start]; sentence == 0 && 'a' <= c && c <= 'z' {
			dst[start] = c - 'a' + 'A'
		}
		sentence++
		if sentence > 6+r.Intn(10) {
			dst = append(dst, ". "...)
			sentence = 0
		} else {
			dst = append(dst, ' ')
		}
	}
	return dst[:end]
}

// HTML emits markup-heavy hypertext. Each paragraph is EnglishText
// from a seed the page's own source draws, written in place.
func HTML(seed int64, n int) []byte {
	r, pr := rng(seed), new(source)
	b := append(buf(n), "<!DOCTYPE html><html><head><title>report</title></head><body>\n"...)
	for len(b) < n {
		switch r.Intn(4) {
		case 0:
			b = append(b, `<div class="row-`...)
			b = appendInt(b, r.Intn(100))
			b = append(b, `"><span>`...)
			b = append(b, word(r)...)
			b = append(b, "</span></div>\n"...)
		case 1:
			b = append(b, `<a href="/item/`...)
			b = appendInt(b, r.Intn(10000))
			b = append(b, `">`...)
			b = append(b, word(r)...)
			b = append(b, ' ')
			b = append(b, word(r)...)
			b = append(b, "</a>\n"...)
		case 2:
			pr.Seed(int64(r.Int31()))
			plen := 40 + r.Intn(80)
			b = append(b, "<p>"...)
			b = appendEnglish(b, pr, plen)
			b = append(b, "</p>\n"...)
		case 3:
			b = append(b, "<table><tr><td>"...)
			b = appendInt(b, r.Intn(1000))
			b = append(b, "</td><td>"...)
			b = appendInt(b, r.Intn(1000))
			b = append(b, "</td></tr></table>\n"...)
		}
	}
	return b[:n]
}

// CSource emits C-like source code.
func CSource(seed int64, n int) []byte {
	r := rng(seed)
	b := buf(n)
	for len(b) < n {
		fn := r.Intn(1000)
		b = append(b, "static int handle_"...)
		b = appendInt(b, fn)
		b = append(b, "(struct ctx *c, int flags) {\n"...)
		for i := 0; i < 3+r.Intn(5); i++ {
			b = append(b, "\tif (c->field_"...)
			b = appendInt(b, r.Intn(16))
			b = append(b, " > "...)
			b = appendInt(b, r.Intn(256))
			b = append(b, ") return -EINVAL;\n"...)
		}
		b = append(b, "\treturn c->field_"...)
		b = appendInt(b, r.Intn(16))
		b = append(b, " + "...)
		b = appendInt(b, fn)
		b = append(b, ";\n}\n\n"...)
	}
	return b[:n]
}

var logLevels = [...]string{"info", "warn", "error", "debug"}

// JSONLog emits newline-delimited JSON log records.
func JSONLog(seed int64, n int) []byte {
	r := rng(seed)
	b := buf(n)
	ts := int64(1700000000)
	for len(b) < n {
		ts += int64(r.Intn(5))
		b = append(b, `{"ts":`...)
		b = strconv.AppendInt(b, ts, 10)
		b = append(b, `,"level":"`...)
		b = append(b, logLevels[r.Intn(4)]...)
		b = append(b, `","svc":"web-`...)
		b = appendInt(b, r.Intn(8))
		b = append(b, `","msg":"`...)
		b = append(b, word(r)...)
		b = append(b, `","lat_ms":`...)
		b = appendInt(b, r.Intn(500))
		b = append(b, "}\n"...)
	}
	return b[:n]
}

// CSVTable emits a numeric CSV table with correlated columns.
func CSVTable(seed int64, n int) []byte {
	r := rng(seed)
	b := append(buf(n), "id,region,value,count,flag\n"...)
	id := 0
	for len(b) < n {
		id++
		b = appendInt(b, id)
		b = append(b, ",us-east-"...)
		b = appendInt(b, r.Intn(4))
		b = append(b, ',')
		b = appendCents(b, 100*r.Float64())
		b = append(b, ',')
		b = appendInt(b, r.Intn(50))
		b = append(b, ',')
		b = strconv.AppendBool(b, r.Intn(2) == 0)
		b = append(b, '\n')
	}
	return b[:n]
}

// XMLFeed emits an RSS-like XML feed.
func XMLFeed(seed int64, n int) []byte {
	r := rng(seed)
	b := append(buf(n), "<?xml version=\"1.0\"?><feed>\n"...)
	for len(b) < n {
		b = append(b, "  <entry><id>"...)
		b = appendInt(b, r.Intn(100000))
		b = append(b, "</id><title>"...)
		b = append(b, word(r)...)
		b = append(b, ' ')
		b = append(b, word(r)...)
		b = append(b, "</title><updated>2023-10-"...)
		b = appendPadded(b, 1+r.Intn(28), 2, '0')
		b = append(b, "T12:00:00Z</updated></entry>\n"...)
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
	b := buf(n)
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
	b := buf(n)
	v := 20.0
	for len(b) < n {
		v += r.Float64() - 0.5
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b[:n]
}

// IntCounters emits little-endian int64 counters with small deltas
// (timestamps, sequence numbers): mostly-zero high bytes.
func IntCounters(seed int64, n int) []byte {
	r := rng(seed)
	b := buf(n)
	v := int64(1 << 40)
	for len(b) < n {
		v += int64(r.Intn(1000))
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
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
	b := buf(n)
	id := 1000
	for len(b) < n {
		id++
		b = append(b, "INSERT INTO users (id, name, email, active) VALUES ("...)
		b = appendInt(b, id)
		b = append(b, ", '"...)
		b = append(b, word(r)...)
		b = append(b, "', '"...)
		b = append(b, word(r)...)
		b = append(b, "@example.com', "...)
		b = appendInt(b, r.Intn(2))
		b = append(b, ");\n"...)
	}
	return b[:n]
}

var subsystems = [...]string{"oom", "net", "sched", "mm"}

// Syslog emits RFC3164-style log lines.
func Syslog(seed int64, n int) []byte {
	r := rng(seed)
	b := buf(n)
	for len(b) < n {
		b = append(b, "Oct "...)
		b = appendPadded(b, 1+r.Intn(28), 2, ' ')
		b = append(b, " 12:"...)
		b = appendPadded(b, r.Intn(60), 2, '0')
		b = append(b, ':')
		b = appendPadded(b, r.Intn(60), 2, '0')
		b = append(b, " host"...)
		b = appendInt(b, r.Intn(4))
		b = append(b, " kernel: ["...)
		b = appendInt(b, r.Intn(100000))
		b = append(b, '.')
		b = appendPadded(b, r.Intn(1000000), 6, '0')
		b = append(b, "] "...)
		b = append(b, subsystems[r.Intn(4)]...)
		b = append(b, ": "...)
		b = append(b, word(r)...)
		b = append(b, " limit="...)
		b = appendInt(b, r.Intn(4096))
		b = append(b, '\n')
	}
	return b[:n]
}

var configKeys = [...]string{"timeout_ms", "retries", "cache_size", "endpoint", "region",
	"log_level", "batch", "max_conn", "tls", "pool"}

// KeyValue emits config-file key=value text with a small key universe.
func KeyValue(seed int64, n int) []byte {
	r := rng(seed)
	b := buf(n)
	for len(b) < n {
		b = append(b, configKeys[r.Intn(len(configKeys))]...)
		b = append(b, '=')
		b = appendInt(b, r.Intn(10000))
		b = append(b, '\n')
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
