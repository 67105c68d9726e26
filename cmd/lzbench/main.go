// Command lzbench benchmarks the registered compression codecs over
// the synthetic corpora — the reproduction's stand-in for the lzbench
// runs the paper's artifact uses (Appendix A). It reports ratio,
// compression and decompression throughput per (codec, corpus) pair.
//
// Usage:
//
//	lzbench [-size BYTES] [-page BYTES] [-codecs csv] [corpus ...]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xfm/internal/compress"
	"xfm/internal/corpus"
	"xfm/internal/stats"
)

func main() {
	size := flag.Int("size", 1<<20, "bytes per corpus")
	page := flag.Int("page", 4096, "compression granularity (0 = whole corpus)")
	codecsFlag := flag.String("codecs", "", "comma-separated codec names (default: all)")
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		names = corpus.Names()
	}
	var codecs []compress.Codec
	if *codecsFlag == "" {
		for _, n := range compress.Names() {
			c, _ := compress.Lookup(n)
			codecs = append(codecs, c)
		}
	} else {
		for _, n := range strings.Split(*codecsFlag, ",") {
			c, err := compress.Lookup(strings.TrimSpace(n))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			codecs = append(codecs, c)
		}
	}

	t := stats.NewTable("lzbench — page-granular codec comparison",
		"corpus", "codec", "ratio", "comp MB/s", "decomp MB/s")
	for _, name := range names {
		gen, err := corpus.Get(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		data := gen(1, *size)
		var chunks [][]byte
		if *page > 0 {
			chunks = corpus.Pages(data, *page)
		} else {
			chunks = [][]byte{data}
		}
		for _, c := range codecs {
			ratio, compMBs, decompMBs, err := benchCodec(c, chunks)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s/%s: %v\n", name, c.Name(), err)
				os.Exit(1)
			}
			t.AddRow(name, c.Name(),
				fmt.Sprintf("%.2f", ratio),
				fmt.Sprintf("%.0f", compMBs),
				fmt.Sprintf("%.0f", decompMBs))
		}
	}
	fmt.Print(t.String())
}

// benchCodec times the codec calls alone — destination buffers are
// allocated up front, and the round trips are verified in a pass of
// their own, byte for byte: a decoder that returns the right number of
// wrong bytes must not get a throughput row.
func benchCodec(c compress.Codec, chunks [][]byte) (ratio, compMBs, decompMBs float64, err error) {
	var orig, stored int
	compressed := make([][]byte, len(chunks))
	for i, ch := range chunks {
		compressed[i] = make([]byte, 0, c.MaxCompressedLen(len(ch)))
		orig += len(ch)
	}

	start := time.Now()
	for i, ch := range chunks {
		compressed[i] = c.Compress(compressed[i], ch)
	}
	compTime := time.Since(start)

	var outBuf []byte
	start = time.Now()
	for i := range chunks {
		if outBuf, err = c.Decompress(outBuf[:0], compressed[i]); err != nil {
			return 0, 0, 0, fmt.Errorf("chunk %d: %w", i, err)
		}
	}
	decompTime := time.Since(start)

	for i, ch := range chunks {
		stored += len(compressed[i])
		if outBuf, err = c.Decompress(outBuf[:0], compressed[i]); err != nil {
			return 0, 0, 0, fmt.Errorf("chunk %d: %w", i, err)
		}
		if !bytes.Equal(outBuf, ch) {
			return 0, 0, 0, fmt.Errorf("chunk %d: round trip returned %d bytes that differ from the %d given", i, len(outBuf), len(ch))
		}
	}

	ratio = float64(orig) / float64(stored)
	compMBs = float64(orig) / compTime.Seconds() / 1e6
	decompMBs = float64(orig) / decompTime.Seconds() / 1e6
	return ratio, compMBs, decompMBs, nil
}
