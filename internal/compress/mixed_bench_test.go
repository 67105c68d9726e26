package compress

import (
	"testing"

	"xfm/internal/corpus"
)

// The mixed-corpus benchmarks time a codec on the pages the swap path
// actually moves: 256 pages from each of the 16 corpus generators at
// seed 1, the same spread benchmark/ builds its working set from. The
// "all" sub-benchmark is the per-page mean over all 4 096 pages (a
// benchmark that calls b.Run is not itself timed); the per-generator
// sub-benchmarks show which shapes cost what and report
// the compressed size next to the time.

const mixedPagesPerGen = 256

// mixedCache keeps each generator's pages across the N=1 probe and the
// timed call of every sub-benchmark (benchmarks and tests run serially).
var mixedCache = map[string][][]byte{}

func mixedCorpusPages(tb testing.TB, name string) [][]byte {
	tb.Helper()
	if pages, ok := mixedCache[name]; ok {
		return pages
	}
	gen, err := corpus.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	pages := corpus.Pages(gen(1, mixedPagesPerGen*4096), 4096)
	mixedCache[name] = pages
	return pages
}

// allMixedPages interleaves the generators one page each in turn, so
// the "all" benchmarks' pages[i%len(pages)] weighs every generator
// equally (to within one page) at any b.N, not only at multiples of
// 4 096.
func allMixedPages(tb testing.TB) [][]byte {
	names := corpus.Names()
	pages := make([][]byte, 0, len(names)*mixedPagesPerGen)
	for k := 0; k < mixedPagesPerGen; k++ {
		for _, name := range names {
			pages = append(pages, mixedCorpusPages(tb, name)[k])
		}
	}
	return pages
}

func benchCompressPages(b *testing.B, c Codec, pages [][]byte) {
	dst := make([]byte, 0, c.MaxCompressedLen(4096))
	total := 0
	for _, p := range pages {
		dst = c.Compress(dst[:0], p)
		total += len(dst)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], pages[i%len(pages)])
	}
	b.ReportMetric(float64(total)/float64(len(pages)), "bytes/page")
}

func benchDecompressPages(b *testing.B, c Codec, pages [][]byte) {
	streams := make([][]byte, len(pages))
	total := 0
	for i, p := range pages {
		streams[i] = c.Compress(nil, p)
		total += len(streams[i])
	}
	dst := make([]byte, 0, 4096)
	var err error
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = c.Decompress(dst[:0], streams[i%len(streams)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)/float64(len(pages)), "bytes/page")
}

// benchMixed runs one page benchmark over the whole corpus ("all") and
// over each generator's pages.
func benchMixed(b *testing.B, c Codec, bench func(*testing.B, Codec, [][]byte)) {
	b.Run("all", func(b *testing.B) { bench(b, c, allMixedPages(b)) })
	for _, name := range corpus.Names() {
		b.Run(name, func(b *testing.B) { bench(b, c, mixedCorpusPages(b, name)) })
	}
}

func BenchmarkXDeflateCompressMixed(b *testing.B) {
	benchMixed(b, NewXDeflate(), benchCompressPages)
}

func BenchmarkXDeflateDecompressMixed(b *testing.B) {
	benchMixed(b, NewXDeflate(), benchDecompressPages)
}

func BenchmarkLZFastCompressMixed(b *testing.B) {
	benchMixed(b, NewLZFast(), benchCompressPages)
}

func BenchmarkLZFastDecompressMixed(b *testing.B) {
	benchMixed(b, NewLZFast(), benchDecompressPages)
}
