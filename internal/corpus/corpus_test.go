package corpus

import (
	"bytes"
	"sync"
	"testing"

	"xfm/internal/compress"
)

func TestAllCorporaRegistered(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Errorf("corpus count = %d, want 16 (Fig. 8 uses 16 corpus files)", len(names))
	}
	for _, n := range names {
		g, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			t.Fatalf("%s: nil generator", n)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown corpus accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, n := range Names() {
		g, _ := Get(n)
		a := g(42, 8192)
		b := g(42, 8192)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: not deterministic for same seed", n)
		}
		if bytes.Equal(a, g(43, 8192)) {
			t.Errorf("%s: identical output for different seeds", n)
		}
	}
}

// TestGeneratorsConcurrentMatchSerial calls every generator from
// several goroutines at once (HTML fans its paragraphs out on a pool of
// GOMAXPROCS workers inside each call) and requires each result to equal
// a serial call's.
func TestGeneratorsConcurrentMatchSerial(t *testing.T) {
	const size = 128 << 10
	names := Names()
	want := make(map[string][]byte, len(names))
	for _, n := range names {
		g, _ := Get(n)
		want[n] = g(3, size)
	}
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range names {
				n := names[(i+k)%len(names)]
				g, _ := Get(n)
				if !bytes.Equal(g(3, size), want[n]) {
					t.Errorf("%s: goroutine %d differs from the serial call", n, k)
				}
			}
		}(k)
	}
	wg.Wait()
}

func TestGeneratorsExactLength(t *testing.T) {
	for _, n := range Names() {
		g, _ := Get(n)
		for _, size := range []int{1, 100, 4096, 12288} {
			if got := len(g(1, size)); got != size {
				t.Errorf("%s: len = %d, want %d", n, got, size)
			}
		}
	}
}

func TestPagesSplitsCleanly(t *testing.T) {
	data := make([]byte, 4096*3+100)
	pages := Pages(data, 4096)
	if len(pages) != 3 {
		t.Errorf("pages = %d, want 3 (partial trailing page dropped)", len(pages))
	}
	for i, p := range pages {
		if len(p) != 4096 {
			t.Errorf("page %d has %d bytes", i, len(p))
		}
	}
	if got := Pages(make([]byte, 100), 4096); got != nil {
		t.Errorf("undersized corpus should yield no pages, got %d", len(got))
	}
}

func TestCorporaCompressibilityOrdering(t *testing.T) {
	// Structural sanity: random must be the least compressible;
	// sparse-zero and key-value must compress well.
	codec := compress.NewXDeflate()
	ratio := func(name string) float64 {
		g, _ := Get(name)
		data := g(7, 64<<10)
		var orig, comp int
		for _, p := range Pages(data, 4096) {
			orig += len(p)
			comp += len(codec.Compress(nil, p))
		}
		return float64(orig) / float64(comp)
	}
	rRandom := ratio("random")
	rSparse := ratio("sparse-zero")
	rKV := ratio("key-value")
	rText := ratio("text-english")
	if rRandom > 1.1 {
		t.Errorf("random ratio = %.2f, want ≈1", rRandom)
	}
	if rSparse < 4 {
		t.Errorf("sparse-zero ratio = %.2f, want ≥ 4", rSparse)
	}
	if rKV < 2 {
		t.Errorf("key-value ratio = %.2f, want ≥ 2", rKV)
	}
	if rText < 1.5 {
		t.Errorf("text ratio = %.2f, want ≥ 1.5", rText)
	}
	if rRandom >= rText || rRandom >= rKV || rRandom >= rSparse {
		t.Error("random should be the least compressible corpus")
	}
}

func TestDNAEntropyBound(t *testing.T) {
	// 4-symbol data: an entropy coder should approach 4× but a pure
	// match coder cannot; both must stay above 1×.
	g, _ := Get("dna")
	data := g(3, 32<<10)
	rXD := func() float64 {
		c := compress.NewXDeflate()
		out := c.Compress(nil, data)
		return float64(len(data)) / float64(len(out))
	}()
	if rXD < 1.5 {
		t.Errorf("dna xdeflate ratio = %.2f, want ≥ 1.5", rXD)
	}
}

var corpusSink []byte

// BenchmarkCorpus times each generator at the benchmark's working-set
// shape: 256 pages at seed 1.
func BenchmarkCorpus(b *testing.B) {
	for _, n := range Names() {
		g, _ := Get(n)
		b.Run(n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				corpusSink = g(1, 256*4096)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
		})
	}
}

func BenchmarkGenerateAllCorpora(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range Names() {
			g, _ := Get(n)
			g(int64(i), 4096)
		}
	}
}
