package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xfm/internal/compress"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

// smokeRun runs every workload at the smoke size and returns the runs
// by workload name.
func smokeRun(t *testing.T, trace int) map[string]result {
	t.Helper()
	rep, ok, err := run(io.Discard, options{workload: "all", seed: 1, smoke: true, runs: 1, trace: trace, outdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("smoke run reported a failed operation or a missing metric")
	}
	out := map[string]result{}
	for _, r := range rep.Runs {
		out[r.Workload] = r
	}
	return out
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesCatalogue pins BENCHMARK.json to the catalogue in
// metrics.go and the workload list, both ways.
func TestContractMatchesCatalogue(t *testing.T) {
	c := loadContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has {%s %s}", i, c.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has {%s %s %s}, catalogue has {%s %s %s}",
					kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the catalogue's %v", kind, d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound in BENCHMARK.json", kind, d.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// TestSmokeEmitsEveryMetric runs all four workloads untraced and traced
// and checks every metric BENCHMARK.json names comes out, with its unit
// in the contract line, plus one Chrome trace per workload.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	c := loadContract(t)
	for _, mode := range []struct {
		trace int
		names []contractMetric
	}{{0, c.EndToEnd}, {1, c.PerLayer}} {
		var buf bytes.Buffer
		dir := t.TempDir()
		rep, ok, err := run(&buf, options{workload: "all", seed: 1, smoke: true, runs: 1, trace: mode.trace, outdir: dir})
		if err != nil || !ok {
			t.Fatalf("trace=%d: ok=%v err=%v\n%s", mode.trace, ok, err, buf.String())
		}
		if len(rep.Runs) != len(workloads) {
			t.Fatalf("trace=%d: %d runs, want %d", mode.trace, len(rep.Runs), len(workloads))
		}
		// The last line of the output is the last workload's contract line.
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var line struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatalf("trace=%d: last line is not the contract object: %v", mode.trace, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace=%d: contract line %+v", mode.trace, line)
		}
		if len(line.Metrics) != len(mode.names) {
			t.Errorf("trace=%d: contract line has %d metrics, BENCHMARK.json names %d", mode.trace, len(line.Metrics), len(mode.names))
		}
		for _, want := range mode.names {
			got, ok := line.Metrics[want.Name]
			if !ok || got.Value == nil || got.Unit != want.Unit {
				t.Errorf("trace=%d: metric %s: got %+v, want unit %q", mode.trace, want.Name, got, want.Unit)
			}
		}
		for _, r := range rep.Runs {
			for _, want := range mode.names {
				if _, ok := r.Metrics[want.Name]; !ok {
					t.Errorf("trace=%d %s: metric %s missing", mode.trace, r.Workload, want.Name)
				}
			}
			if mode.trace == 0 {
				for _, d := range endToEnd {
					if r.Metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, d.Name, r.Metrics[d.Name])
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, "trace_"+r.Workload+".json")); err != nil {
				t.Errorf("%s: no Chrome trace: %v", r.Workload, err)
			}
			if len(r.Attribution) == 0 {
				t.Errorf("%s: traced run has no layer attribution", r.Workload)
			}
		}
	}
}

// TestSimTimeIdenticalWithoutFastForward shows host-speed work on the
// window engine is behaviour-neutral under this benchmark: every
// deterministic metric of every workload reads the same with the NMA's
// idle fast-forward disabled.
func TestSimTimeIdenticalWithoutFastForward(t *testing.T) {
	fast := smokeRun(t, 0)
	nma.SetFastForward(false)
	defer nma.SetFastForward(true)
	stepped := smokeRun(t, 0)
	for name, f := range fast {
		compared := 0
		for _, d := range perLayer {
			if d.Kind != exact {
				continue
			}
			fv, ok := f.Metrics[d.Name]
			if !ok {
				continue
			}
			compared++
			if sv := stepped[name].Metrics[d.Name]; sv != fv {
				t.Errorf("%s %s: %v fast-forwarded, %v stepped", name, d.Name, fv, sv)
			}
		}
		if compared == 0 {
			t.Errorf("%s: no deterministic metric to compare", name)
		}
	}
}

// TestSelfTimeIsSpanMinusChildUnion: two codec calls overlapping on two
// workers cover their union, not their sum, and a child is clipped to
// its parent.
func TestSelfTimeIsSpanMinusChildUnion(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "c1", Start: 10, End: 50, Parent: 0},
		{Name: "c2", Start: 30, End: 70, Parent: 0}, // overlaps c1 on another worker
		{Name: "c3", Start: 90, End: 120, Parent: 0},
		{Name: "grandchild", Start: 35, End: 45, Parent: 2},
	}
	self := selfTimes(spans)
	// Covered: [10,70] and [90,100] = 70 of 100; the sum of the children
	// would be 110, more than the parent itself.
	if self[0] != 30 {
		t.Errorf("parent self time = %d, want 30", self[0])
	}
	if self[1] != 40 || self[2] != 30 || self[3] != 30 || self[4] != 10 {
		t.Errorf("child self times = %v, want [_ 40 30 30 10]", self)
	}
}

func TestTracerNestsAndParentsLeaves(t *testing.T) {
	tr := newTracer()
	r := tr.begin("round", "bench")
	c := tr.begin("SwapOutBatch", "xfm")
	now := time.Now()
	tr.leaf("Compress", "compress", now, now.Add(time.Microsecond))
	tr.end(c)
	tr.end(r)
	if tr.spans[c].Parent != r || tr.spans[2].Parent != c || tr.spans[r].Parent != -1 {
		t.Errorf("parents = %d %d %d, want -1 %d %d", tr.spans[r].Parent, tr.spans[c].Parent, tr.spans[2].Parent, r, c)
	}
	if tr.current != -1 {
		t.Errorf("current = %d after closing every span, want -1", tr.current)
	}
	var off *tracer
	off.end(off.begin("x", "y")) // tracing off: must not panic
	off.leaf("x", "y", now, now)
}

// TestPercentileTenBeyond: a percentile is quoted only with at least ten
// samples beyond it.
func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 50, true}, {19, 50, false},
		{200, 95, true}, {199, 95, false},
		{1000, 99, true}, {999, 99, false},
		{4096, 99, true}, {32, 95, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if p50, p95, p100 := percentile(s, 50), percentile(s, 95), percentile(s, 100); p50 != 50 || p95 != 95 || p100 != 100 {
		t.Errorf("nearest-rank percentiles of 1..100 = %d %d %d, want 50 95 100", p50, p95, p100)
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

// TestTimingCodecForwards: the decorator round-trips and is invisible to
// the backend's accounting.
func TestTimingCodecForwards(t *testing.T) {
	pages, _, err := mixedCorpus(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []compress.Codec{compress.NewLZFast(), compress.NewXDeflate()} {
		tr := newTracer()
		tc := &timingCodec{inner: inner, tr: tr}
		if tc.Name() != inner.Name() || tc.Info() != inner.Info() || tc.MaxCompressedLen(sfm.PageSize) != inner.MaxCompressedLen(sfm.PageSize) {
			t.Errorf("%s: Name/Info/MaxCompressedLen not forwarded unchanged", inner.Name())
		}
		for i, p := range pages {
			comp := tc.Compress(nil, p)
			if !bytes.Equal(comp, inner.Compress(nil, p)) {
				t.Fatalf("%s page %d: decorated compress differs from the bare codec", inner.Name(), i)
			}
			back, err := tc.Decompress(nil, comp)
			if err != nil || !bytes.Equal(back, p) {
				t.Fatalf("%s page %d: round trip failed: %v", inner.Name(), i, err)
			}
		}
		m := metrics{}
		tc.report(m, 1, 1)
		if m["compress.calls"] != float64(2*len(pages)) || len(tr.spans) != 2*len(pages) {
			t.Errorf("%s: %v calls and %d spans, want %d of each", inner.Name(), m["compress.calls"], len(tr.spans), 2*len(pages))
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	host := metricDef{Name: "pages_per_s", Better: "higher", Bound: 0.10, Kind: hostTime}
	lat := metricDef{Name: "swapin_p50_us", Better: "lower", Bound: 0.10, Kind: hostTime}
	count := metricDef{Name: "xfm.offloads", Kind: exact}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
		bad  bool
	}{
		{"steady", host, []float64{100, 101, 99}, []float64{98, 100, 102}, "within", false},
		{"slower throughput", host, []float64{100, 101, 99}, []float64{85, 86, 84}, "REGRESSION", true},
		{"faster throughput", host, []float64{100, 101, 99}, []float64{120, 121, 119}, "better", false},
		{"slower latency", lat, []float64{100, 101, 99}, []float64{115, 116, 114}, "REGRESSION", true},
		{"noisy", host, []float64{100, 130, 90}, []float64{85, 100, 84}, "unresolved", false},
		{"noisy but every run better", host, []float64{100, 130, 90}, []float64{140, 150, 180}, "better", false},
		{"count same", count, []float64{7, 7}, []float64{7, 7}, "same", false},
		{"count moved", count, []float64{7, 7}, []float64{7, 8}, "CHANGED", true},
	} {
		got, bad := verdict(c.d, c.a, c.b)
		if got != c.want || bad != c.bad {
			t.Errorf("%s: verdict = %q regressed=%v, want %q %v", c.name, got, bad, c.want, c.bad)
		}
	}
}
