// Package bench runs the swap-path benchmark scenarios outside `go
// test`, producing machine-readable results for the CI bench gate.
// The scenarios mirror the repository-level benchmarks in
// bench_test.go (same batch shape, same backends), measured with
// testing.Benchmark so ns/op and allocs/op mean the same thing in both
// harnesses.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"xfm/internal/compress"
	"xfm/internal/corpus"
	"xfm/internal/sfm"
)

// Result is one scenario's measurement, serialized as BENCH_<name>.json.
type Result struct {
	Name string `json:"name"`
	// PagesPerSec is the headline throughput: pages swapped out and
	// back in per second of wall time.
	PagesPerSec float64 `json:"pages_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	// AllocsPerOp counts heap allocations per op (one op = one
	// swap-out + swap-in round trip of the whole batch).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// CompressionRatio is original/compressed over the scenario's page
	// set under the scenario's codec.
	CompressionRatio float64 `json:"compression_ratio"`
	// PagesPerOp is the batch size (pages moved per op).
	PagesPerOp int `json:"pages_per_op"`
	// Measurement environment. pages/s depends heavily on the core
	// count, so the gate (cmd/benchgate) warns loudly when a baseline
	// recorded at one GOMAXPROCS judges a run at another. Zero/empty
	// values mean "recorded before these fields existed".
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	// Workers is the scenario's worker bound (0 = GOMAXPROCS) and
	// Shards its shard count (0 = unsharded) — the scenario's own
	// parallelism config, recorded so a baseline mismatch is visible.
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// IntervalPagesPerSec is the throughput trajectory: the measured
	// ops split into up to benchIntervals equal-op intervals, each
	// reported as pages/s. A flat series means the headline number is a
	// steady-state figure; a ramp means warmup or drift polluted it.
	IntervalPagesPerSec []float64 `json:"interval_pages_per_sec,omitempty"`
	// SteadyStatePagesPerSec is the mean of the last half of the
	// interval series — the throughput after warmup.
	SteadyStatePagesPerSec float64 `json:"steady_state_pages_per_sec,omitempty"`
}

// scenario is a named swap-path configuration. shards/workers record
// the backend's parallelism config; ids, when set, picks the page ids
// (the skewed scenario routes every page to one shard with it).
type scenario struct {
	name    string
	codec   func() compress.Codec
	mk      func() sfm.Backend
	shards  int
	workers int
	ids     func(i int) sfm.PageID
	// custom, when set, replaces the swap-path harness entirely (the
	// NMA simulator scenario measures window advance, not swaps).
	custom func(name string) (Result, error)
}

const benchPages = 256

// benchShards is the shard count of the sharded scenarios.
const benchShards = 16

func scenarios() []scenario {
	return []scenario{
		{
			name:  "swap_serial_xdeflate",
			codec: func() compress.Codec { return compress.NewXDeflate() },
			mk:    func() sfm.Backend { return sfm.NewCPUBackend(compress.NewXDeflate(), 0) },
		},
		{
			name:  "swap_serial_lzfast",
			codec: func() compress.Codec { return compress.NewLZFast() },
			mk:    func() sfm.Backend { return sfm.NewCPUBackend(compress.NewLZFast(), 0) },
		},
		{
			name:   "swap_parallel_xdeflate",
			codec:  func() compress.Codec { return compress.NewXDeflate() },
			mk:     func() sfm.Backend { return sfm.NewShardedBackend(compress.NewXDeflate(), 0, benchShards, 0) },
			shards: benchShards,
		},
		{
			name:   "swap_sharded_lzfast",
			codec:  func() compress.Codec { return compress.NewLZFast() },
			mk:     func() sfm.Backend { return sfm.NewShardedBackend(compress.NewLZFast(), 0, benchShards, 0) },
			shards: benchShards,
		},
		{
			// Worst-case routing: every page hashes to shard 0. A
			// shard-granular engine degrades to serial here; the
			// page-granular pipeline should stay within ~1.5× of the
			// uniform swap_sharded_lzfast scenario.
			name:   "swap_skewed_lzfast",
			codec:  func() compress.Codec { return compress.NewLZFast() },
			mk:     func() sfm.Backend { return sfm.NewShardedBackend(compress.NewLZFast(), 0, benchShards, 0) },
			shards: benchShards,
			ids:    skewedID,
		},
		{
			name:   "nma_window_sweep",
			custom: runNMAWindowSweep,
		},
	}
}

// skewedIDs caches the first benchPages ids that hash to shard 0.
var skewedIDs = func() []sfm.PageID {
	ids := make([]sfm.PageID, 0, benchPages)
	for id := int64(0); len(ids) < benchPages; id++ {
		if sfm.ShardIndexFor(sfm.PageID(id), benchShards) == 0 {
			ids = append(ids, sfm.PageID(id))
		}
	}
	return ids
}()

func skewedID(i int) sfm.PageID { return skewedIDs[i] }

// pages builds the benchmark working set: compressible key-value
// pages, the same shape bench_test.go uses. ids, when non-nil,
// overrides the default sequential page ids (page content still keys
// off the position, so every scenario compresses identical bytes).
func pages(ids func(i int) sfm.PageID) ([]sfm.PageOut, []sfm.PageIn) {
	outs := make([]sfm.PageOut, benchPages)
	ins := make([]sfm.PageIn, benchPages)
	for i := range outs {
		id := sfm.PageID(i)
		if ids != nil {
			id = ids(i)
		}
		outs[i] = sfm.PageOut{ID: id, Data: corpus.KeyValue(int64(i), sfm.PageSize)}
		ins[i] = sfm.PageIn{ID: outs[i].ID, Dst: make([]byte, sfm.PageSize)}
	}
	return outs, ins
}

// benchIntervals bounds the per-run throughput series length.
const benchIntervals = 16

// intervalRates folds per-op wall times into up to benchIntervals
// equal-op intervals of pages/s, oldest first.
func intervalRates(opNs []int64, pagesPerOp int) []float64 {
	n := len(opNs)
	if n == 0 {
		return nil
	}
	k := benchIntervals
	if n < k {
		k = n
	}
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		var ns int64
		for _, v := range opNs[lo:hi] {
			ns += v
		}
		if ns <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, float64(hi-lo)*float64(pagesPerOp)*1e9/float64(ns))
	}
	return out
}

// steadyState returns the mean of the last half of the interval series
// (the whole series when it has a single point).
func steadyState(intervals []float64) float64 {
	if len(intervals) == 0 {
		return 0
	}
	half := intervals[len(intervals)/2:]
	sum := 0.0
	for _, v := range half {
		sum += v
	}
	return sum / float64(len(half))
}

// run measures one scenario.
func run(sc scenario) (Result, error) {
	if sc.custom != nil {
		return sc.custom(sc.name)
	}
	outs, ins := pages(sc.ids)
	backend := sc.mk()
	var failure error
	var opNs []int64
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Preallocated before ResetTimer so the trajectory bookkeeping
		// stays out of ns/op and allocs/op. The two clock reads per op
		// are noise against a 256-page swap round trip.
		opNs = make([]int64, b.N)
		b.ResetTimer()
		prev := time.Now()
		for i := 0; i < b.N; i++ {
			if err := sfm.FirstError(backend.SwapOutBatch(0, outs)); err != nil {
				failure = err
				b.FailNow()
			}
			if err := sfm.FirstError(backend.SwapInBatch(0, ins, false)); err != nil {
				failure = err
				b.FailNow()
			}
			now := time.Now()
			opNs[i] = now.Sub(prev).Nanoseconds()
			prev = now
		}
	})
	if failure != nil {
		return Result{}, fmt.Errorf("bench %s: %w", sc.name, failure)
	}
	if br.N == 0 {
		return Result{}, fmt.Errorf("bench %s: no iterations ran", sc.name)
	}
	// Compression ratio over the same page set, measured directly (the
	// backend's stored-bytes stats drain back to zero after swap-in).
	c := sc.codec()
	s := compress.GetScratch()
	var raw, comp int64
	for _, p := range outs {
		raw += int64(len(p.Data))
		comp += int64(len(s.Compress(c, p.Data)))
	}
	s.Release()
	nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
	intervals := intervalRates(opNs, benchPages)
	return Result{
		Name:                   sc.name,
		PagesPerSec:            float64(br.N) * benchPages / br.T.Seconds(),
		NsPerOp:                nsPerOp,
		AllocsPerOp:            float64(br.AllocsPerOp()),
		CompressionRatio:       float64(raw) / float64(comp),
		PagesPerOp:             benchPages,
		GoMaxProcs:             runtime.GOMAXPROCS(0),
		GoVersion:              runtime.Version(),
		Workers:                sc.workers,
		Shards:                 sc.shards,
		IntervalPagesPerSec:    intervals,
		SteadyStatePagesPerSec: steadyState(intervals),
	}, nil
}

// SteadyStateWarnings flags results whose steady-state throughput
// diverges more than 10% from the whole-run mean: the headline pages/s
// is then polluted by warmup (allocator growth, cache filling) or
// drift (fragmentation), and the gate's comparison is noisier than it
// looks. Non-fatal — cmd/benchgate prints these as warnings, because
// short CI runs legitimately wobble.
func SteadyStateWarnings(results []Result) []string {
	const maxDivergence = 0.10
	var warns []string
	for _, r := range results {
		if len(r.IntervalPagesPerSec) < 4 || r.PagesPerSec <= 0 || r.SteadyStatePagesPerSec <= 0 {
			continue
		}
		div := math.Abs(r.SteadyStatePagesPerSec-r.PagesPerSec) / r.PagesPerSec
		if div > maxDivergence {
			warns = append(warns, fmt.Sprintf(
				"%s: steady-state %.0f pages/s diverges %.1f%% from the run mean %.0f — run not in steady state; treat the headline figure with suspicion",
				r.Name, r.SteadyStatePagesPerSec, div*100, r.PagesPerSec))
		}
	}
	return warns
}

// EnvWarnings compares the measurement environments of a baseline and
// a candidate run and returns one human-readable warning per
// mismatch. pages/s scales with the core count, so a baseline
// recorded at GOMAXPROCS=8 judging a GOMAXPROCS=1 candidate (or vice
// versa) makes the gate either vacuous or a guaranteed failure;
// cmd/benchgate prints these loudly rather than failing, because the
// fix (regenerate the baseline on the gating machine) is human work.
// Entries recorded before the environment fields existed (zero
// GoMaxProcs) produce a warning of their own.
func EnvWarnings(baseline Baseline, results []Result) []string {
	got := map[string]Result{}
	for _, r := range results {
		got[r.Name] = r
	}
	var warns []string
	for _, b := range baseline.Scenarios {
		r, ok := got[b.Name]
		if !ok {
			continue // Gate reports missing scenarios as failures
		}
		if b.GoMaxProcs == 0 {
			warns = append(warns, fmt.Sprintf(
				"%s: baseline predates environment recording (no gomaxprocs); regenerate bench_baseline.json", b.Name))
			continue
		}
		if b.GoMaxProcs != r.GoMaxProcs {
			warns = append(warns, fmt.Sprintf(
				"%s: GOMAXPROCS mismatch: baseline measured at %d, this run at %d — pages/s are not comparable; regenerate the baseline on this machine",
				b.Name, b.GoMaxProcs, r.GoMaxProcs))
		}
		if b.GoVersion != "" && b.GoVersion != r.GoVersion {
			warns = append(warns, fmt.Sprintf(
				"%s: Go version differs: baseline %s, this run %s",
				b.Name, b.GoVersion, r.GoVersion))
		}
		if b.Workers != r.Workers || b.Shards != r.Shards {
			warns = append(warns, fmt.Sprintf(
				"%s: scenario config differs: baseline workers=%d shards=%d, this run workers=%d shards=%d",
				b.Name, b.Workers, b.Shards, r.Workers, r.Shards))
		}
	}
	return warns
}

// RunAll measures every scenario.
func RunAll() ([]Result, error) {
	var out []Result
	for _, sc := range scenarios() {
		r, err := run(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteJSON writes each result as BENCH_<name>.json under dir,
// creating it if needed.
func WriteJSON(dir string, results []Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+r.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSON loads every BENCH_*.json under dir.
func ReadJSON(dir string) ([]Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Baseline is the checked-in reference the CI gate compares against.
type Baseline struct {
	// Note documents where the numbers came from.
	Note      string   `json:"note"`
	Scenarios []Result `json:"scenarios"`
}

// ReadBaseline loads a baseline file.
func ReadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Gate compares results against a baseline: any scenario whose
// pages/s falls more than maxRegress (a fraction, e.g. 0.20) below
// its baseline entry is a failure. Scenarios missing from either side
// are failures too — a silently dropped benchmark must not pass the
// gate. It returns a human-readable report line per scenario and an
// error when the gate fails.
func Gate(baseline Baseline, results []Result, maxRegress float64) ([]string, error) {
	base := map[string]Result{}
	for _, r := range baseline.Scenarios {
		base[r.Name] = r
	}
	got := map[string]Result{}
	for _, r := range results {
		got[r.Name] = r
	}
	var lines []string
	var failures []string
	for _, b := range baseline.Scenarios {
		r, ok := got[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from results", b.Name))
			continue
		}
		floor := b.PagesPerSec * (1 - maxRegress)
		delta := (r.PagesPerSec - b.PagesPerSec) / b.PagesPerSec * 100
		line := fmt.Sprintf("%-24s %10.0f pages/s (baseline %.0f, %+.1f%%, floor %.0f)",
			b.Name, r.PagesPerSec, b.PagesPerSec, delta, floor)
		lines = append(lines, line)
		if r.PagesPerSec < floor {
			failures = append(failures, fmt.Sprintf("%s: %.0f pages/s is below the %.0f floor (baseline %.0f, max regression %.0f%%)",
				b.Name, r.PagesPerSec, floor, b.PagesPerSec, maxRegress*100))
		}
	}
	for _, r := range results {
		if _, ok := base[r.Name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: not in baseline (regenerate bench_baseline.json)", r.Name))
		}
	}
	if len(failures) > 0 {
		return lines, fmt.Errorf("bench gate failed:\n  %s", joinLines(failures))
	}
	return lines, nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
