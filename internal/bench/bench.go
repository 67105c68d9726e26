// Package bench runs the swap-path scenarios of `xfmbench -bench-json`
// and writes each as BENCH_<name>.json, timed with testing.Benchmark.
// CI runs them ungated. They stay for the two cases no benchmark/
// workload runs yet: every page on one shard, and an idle NMA horizon.
package bench

import (
	"encoding/json"
	"fmt"
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
	// GoMaxProcs is the core count the run had: pages/s depends
	// heavily on it.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// IntervalPagesPerSec is the throughput trajectory: the measured
	// ops split into up to benchIntervals equal-op intervals, each
	// reported as pages/s. A flat series means the headline number is a
	// steady-state figure; a ramp means warmup or drift polluted it.
	IntervalPagesPerSec []float64 `json:"interval_pages_per_sec,omitempty"`
	// SteadyStatePagesPerSec is the mean of the last half of the
	// interval series — the throughput after warmup.
	SteadyStatePagesPerSec float64 `json:"steady_state_pages_per_sec,omitempty"`
}

// scenario is a named swap-path configuration. ids, when set, picks
// the page ids (the skewed scenario routes every page to one shard with
// it).
type scenario struct {
	name  string
	codec func() compress.Codec
	mk    func() sfm.Backend
	ids   func(i int) sfm.PageID
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
			name:  "swap_parallel_xdeflate",
			codec: func() compress.Codec { return compress.NewXDeflate() },
			mk:    func() sfm.Backend { return sfm.NewShardedBackend(compress.NewXDeflate(), 0, benchShards, 0) },
		},
		{
			name:  "swap_sharded_lzfast",
			codec: func() compress.Codec { return compress.NewLZFast() },
			mk:    func() sfm.Backend { return sfm.NewShardedBackend(compress.NewLZFast(), 0, benchShards, 0) },
		},
		{
			// Worst-case routing: every page hashes to shard 0. A
			// shard-granular engine degrades to serial here; the
			// page-granular pipeline should stay within ~1.5× of the
			// uniform swap_sharded_lzfast scenario.
			name:  "swap_skewed_lzfast",
			codec: func() compress.Codec { return compress.NewLZFast() },
			mk:    func() sfm.Backend { return sfm.NewShardedBackend(compress.NewLZFast(), 0, benchShards, 0) },
			ids:   skewedID,
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

// pages builds the benchmark working set: 256 compressible key-value
// pages. ids, when non-nil, overrides the default sequential page ids
// (page content still keys off the position, so every scenario
// compresses identical bytes).
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
		IntervalPagesPerSec:    intervals,
		SteadyStatePagesPerSec: steadyState(intervals),
	}, nil
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
