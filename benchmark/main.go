// Command benchmark is the repo's end-to-end and per-layer benchmark
// over the paper's own swap path. BENCHMARK.json at the repo root names
// its command, workloads and metrics; README.md in this directory is
// the glossary.
//
//	go run ./benchmark -seed 1 -out run.json          every workload, end-to-end metrics
//	go run ./benchmark -trace 1 -seed 1               per-layer metrics + Chrome traces
//	go run ./benchmark -workload xfm_batch -seconds 15
//	go run ./benchmark -compare A.json B.json
//
// Load comes from one goroutine, closed loop; the backends fan out to
// GOMAXPROCS workers themselves. The seed drives every input, and the
// code under test sees only the generated inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"xfm/internal/compress"
)

// result is one workload measured once.
type result struct {
	Workload  string  `json:"workload"`
	Trace     bool    `json:"trace"`
	Seed      int64   `json:"seed"`
	Rounds    int     `json:"rounds"`
	ElapsedS  float64 `json:"elapsed_s"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Samples is the sample count behind each latency metric.
	Samples     map[string]int `json:"samples"`
	Metrics     metrics        `json:"metrics"`
	Attribution []attribution  `json:"attribution,omitempty"`

	// quietRoundNs is the wall time of one round in the quiet decile of
	// the measured rounds, the reference the traced round is set against.
	quietRoundNs float64
}

// report is what -out writes and -compare reads: the environment and
// every run made.
type report struct {
	Env  envInfo  `json:"env"`
	Runs []result `json:"runs"`
}

type envInfo struct {
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Smoke      bool    `json:"smoke"`
	Seconds    float64 `json:"seconds"`
}

// quietPct picks the rounds a run's host-time metrics are read from.
// Every round is the same fixed work, so the time differences between
// rounds of one run are interference from outside the program (this
// sandbox drifts by ±15 % over seconds to minutes), and interference
// only ever adds time. The fastest decile of rounds — nearest rank, so
// the fastest round when there are fewer than ten — is therefore the
// least disturbed measurement of the same quantity, and repeats across
// runs two to three times more tightly than the mean or median does.
const quietPct = 10

// quiet returns the quietPct-th percentile of per-round values.
func quiet(perRound []int64) float64 {
	return float64(percentile(sortedCopy(perRound), quietPct))
}

// maxSetups caps the set-ups of one run.
const maxSetups = 7

// measure sets the workload up sz.setups times — and again, up to
// maxSetups, while set-up has taken under sz.setupSeconds in all, so a
// sub-second set-up is sampled more often — keeps the last instance, and
// runs whole untraced rounds until `seconds` of wall time have passed
// and at least minRounds rounds ran. Deterministic metrics are read at
// the end of round minRounds, so they do not depend on how many rounds
// a faster or slower commit fits in. Host-time metrics are computed per
// round and read from the quiet rounds, and setup_s from the quiet
// set-ups (see quietPct).
func measure(w workloadDef, e env, seconds float64) (*result, error) {
	res := &result{Workload: w.name, Seed: e.seed, Samples: map[string]int{}, Metrics: metrics{}}
	var inst instance
	var setupNs []int64
	for begun := time.Now(); len(setupNs) < e.sz.setups ||
		(len(setupNs) < maxSetups && time.Since(begun).Seconds() < e.sz.setupSeconds); {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setUp(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupNs = append(setupNs, time.Since(t0).Nanoseconds())
	}
	defer inst.close()
	m := res.Metrics
	m["setup_s"] = quiet(setupNs) / 1e9
	res.Samples["setup_s"] = len(setupNs)
	m["corpus.gen_ms"] = inst.corpusMs()

	// Start from a collected heap so earlier set-ups' garbage is not
	// charged to the measured phase.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var work int64
	var roundNs []int64
	var outEnd, inEnd []int // sample counts at the end of each round
	start := time.Now()
	for lap := start; res.Rounds < w.minRounds || lap.Sub(start).Seconds() < seconds; {
		work += inst.round(nil)
		res.Rounds++
		if res.Rounds == w.minRounds {
			inst.snapshot(m)
		}
		now := time.Now()
		roundNs = append(roundNs, now.Sub(lap).Nanoseconds())
		lap = now
		out, in := inst.latencies()
		outEnd, inEnd = append(outEnd, len(out)), append(inEnd, len(in))
	}
	res.ElapsedS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	res.Attempted, res.Failed = inst.counts()
	m["failed_op_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	out, in := inst.latencies()
	outP50, inP50 := roundMedians(out, outEnd), roundMedians(in, inEnd)
	res.quietRoundNs = quiet(roundNs)
	m["pages_per_s"] = float64(work) / float64(res.Rounds) / (res.quietRoundNs / 1e9)
	m["swapout_p50_us"] = quiet(outP50) / 1e3
	m["swapin_p50_us"] = quiet(inP50) / 1e3
	res.Samples["swapout_p50_us"], res.Samples["swapin_p50_us"] = len(out)/res.Rounds, len(in)/res.Rounds
	inst.hostMetrics(m, res.Samples, res.quietRoundNs)

	m["host.allocs_per_page"] = float64(after.Mallocs-before.Mallocs) / float64(work)
	m["host.alloc_bytes_per_page"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(work)
	m["host.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["host.peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// roundMedians returns each round's median of the samples it added;
// ends[i] is the pooled sample count at the end of round i.
func roundMedians(samples []int64, ends []int) []int64 {
	medians := make([]int64, len(ends))
	lo := 0
	for i, hi := range ends {
		medians[i] = percentile(sortedCopy(samples[lo:hi]), 50)
		lo = hi
	}
	return medians
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// traced produces the per-layer numbers: an untraced reference phase of
// minRounds rounds, then a fresh set-up with the timing codec installed
// and one round with spans on, then the layer replays. End-to-end
// metrics are never taken from here; the pages_per_s gap between the
// two phases is reported as host.trace_overhead_pct.
func traced(w workloadDef, e env, outdir string) (*result, error) {
	// setup_s is an end-to-end metric; one set-up is enough here.
	e.sz.setups, e.sz.setupSeconds = 1, 0
	res, err := measure(w, e, 0)
	if err != nil {
		return nil, err
	}
	res.Trace = true
	m := res.Metrics

	tr := newTracer()
	tr.round = res.Rounds + 1 // the reference rounds came first
	tc := &timingCodec{}
	e.wrap = func(c compress.Codec) compress.Codec {
		tc.inner = c
		return tc
	}
	inst, err := w.setUp(e)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer inst.close()
	// Spans and codec counters cover the traced round only, not the
	// warm-up round inside set-up.
	tc.reset()
	tc.tr = tr
	t0 := time.Now()
	inst.round(tr)
	tracedNs := time.Since(t0).Nanoseconds()
	tc.tr = nil
	attempted, failed := inst.counts()
	res.Attempted += attempted
	res.Failed += failed
	// A round is fixed work, so the pages_per_s gap between the two
	// phases is the gap between their round times.
	m["host.trace_overhead_pct"] = (float64(tracedNs) - res.quietRoundNs) / float64(tracedNs) * 100

	if res.Attribution, err = inst.replay(m, tracedNs, tc); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(filepath.Join(outdir, "trace_"+w.name+".json"), tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// quotedPercentile is the tail percentile a latency metric quotes; the
// table flags one whose sample count leaves fewer than ten beyond it.
// (The p50 metrics are medians of each round's samples.)
var quotedPercentile = map[string]float64{
	"demand_swapin_p95_us":     95,
	"xfm.swapin_demand_p99_us": 99,
}

// printResult writes every metric the run produced, in catalogue order,
// with unit, direction and bound, then the contract line: one JSON
// object holding the end-to-end metrics (untraced) or the per-layer
// metrics (traced). It returns false when the run is not acceptable.
func printResult(w io.Writer, res *result) bool {
	mode, defs := "end-to-end", endToEnd
	if res.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s) seed=%d rounds=%d elapsed=%.2fs attempted=%d failed=%d\n",
		res.Workload, mode, res.Seed, res.Rounds, res.ElapsedS, res.Attempted, res.Failed)
	fmt.Fprintf(w, "%-34s %16s %-7s %-7s %-7s %s\n", "metric", "value", "unit", "better", "bound", "samples")
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			samples := ""
			if n, ok := res.Samples[d.Name]; ok {
				samples = fmt.Sprint(n)
				if p, tail := quotedPercentile[d.Name]; tail && !supported(n, p) {
					samples += " (fewer than ten beyond)"
				}
			}
			fmt.Fprintf(w, "%-34s %16.6g %-7s %-7s %-7s %s\n", d.Name, v, d.Unit, d.Better, d.boundText(), samples)
		}
	}
	if len(res.Attribution) > 0 {
		fmt.Fprintf(w, "-- traced round, wall time by layer (fan-out work at busy/workers)\n")
		for _, a := range res.Attribution {
			fmt.Fprintf(w, "%-34s %16.3f ms\n", a.Layer, a.Ms)
		}
	}

	missing := res.Metrics.missing(defs)
	for _, name := range missing {
		fmt.Fprintf(w, "MISSING %s\n", name)
	}
	ok := res.Failed == 0 && len(missing) == 0
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		if v, have := res.Metrics[d.Name]; have {
			line.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(w, "marshal: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", data)
	return ok
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	runs     int
	out      string
	outdir   string
}

// run executes the selected workloads and returns the report and
// whether every run was acceptable.
func run(w io.Writer, o options) (*report, bool, error) {
	selected := workloads
	if o.workload != "" && o.workload != "all" {
		def, ok := findWorkload(o.workload)
		if !ok {
			return nil, false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workloadDef{def}
	}
	e := env{seed: o.seed, sz: fullSize}
	if o.smoke {
		e.sz = smokeSize
	}
	rep := &report{Env: envInfo{
		Seed: o.seed, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Smoke: o.smoke, Seconds: o.seconds,
	}}
	fmt.Fprintf(w, "seed=%d nproc=%d GOMAXPROCS=%d %s smoke=%v seconds=%g\n",
		rep.Env.Seed, rep.Env.NProc, rep.Env.GoMaxProcs, rep.Env.GoVersion, o.smoke, o.seconds)
	ok := true
	for i := 0; i < o.runs; i++ {
		for _, def := range selected {
			var res *result
			var err error
			if o.trace != 0 {
				res, err = traced(def, e, o.outdir)
			} else {
				res, err = measure(def, e, o.seconds)
			}
			if err != nil {
				return nil, false, err
			}
			rep.Runs = append(rep.Runs, *res)
			if !printResult(w, res) {
				ok = false
			}
		}
	}
	return rep, ok, nil
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: xfm_batch, cpu_batch, demand_single, nma_saturated or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for corpus, shuffle, Zipf draws and NMA traffic")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured wall time per workload; whole rounds run until it has passed")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run (per-layer metrics, spans, layer replays); 0: end-to-end run")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny rounds (64 pages), for the self-test")
	flag.IntVar(&o.runs, "runs", 1, "how many times to run each selected workload")
	flag.StringVar(&o.out, "out", "", "write the runs as JSON to this file (the input of -compare)")
	flag.StringVar(&o.outdir, "outdir", filepath.Join("benchmark", "out"), "directory for Chrome-trace files of a traced run")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare A.json B.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	rep, ok, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
