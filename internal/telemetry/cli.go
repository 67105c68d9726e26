package telemetry

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// CLI bundles the observability flags shared by cmd/xfmbench and
// cmd/dramsim: metrics/trace/time-series file export and wall-clock
// CPU/heap profiling that composes with simulated-time tracing.
type CLI struct {
	MetricsOut    string
	TraceOut      string
	TraceBuf      int
	TimeseriesOut string
	SampleEvery   int
	CPUProfile    string
	MemProfile    string

	cpuFile *os.File
}

// RegisterFlags installs the shared flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write Prometheus text metrics to this file at exit")
	fs.StringVar(&c.TraceOut, "trace-out", "", "record simulated-time spans and write Chrome trace-event JSON to this file at exit")
	fs.IntVar(&c.TraceBuf, "trace-buf", DefaultTraceCapacity, "span ring-buffer capacity for -trace-out (oldest spans drop when exceeded)")
	fs.StringVar(&c.TimeseriesOut, "timeseries-out", "", "record metric time series and write the flight-recorder dump to this file at exit (.csv extension switches to long-format CSV)")
	fs.IntVar(&c.SampleEvery, "sample-every", DefaultSimEvery, "simulated-time sampling period for -timeseries-out, in refresh windows (tREFI intervals)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a runtime/pprof heap profile to this file at exit")
}

// Start enables tracing and the flight recorder and starts profiling
// as requested by the parsed flags.
func (c *CLI) Start() error {
	if c.TraceOut != "" {
		tr := DefaultTracer()
		tr.SetCapacity(c.TraceBuf)
		tr.SetEnabled(true)
	}
	if c.TimeseriesOut != "" {
		s := DefaultSampler()
		s.Reset()
		s.SetSimEvery(c.SampleEvery)
		s.SetEnabled(true)
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		c.cpuFile = f
	}
	return nil
}

// Finish flushes every requested artifact: the Prometheus metrics
// file, the Chrome trace, the CPU profile, and the heap profile.
func (c *CLI) Finish() error {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuFile.Close(); err != nil {
			return err
		}
		c.cpuFile = nil
	}
	if c.MetricsOut != "" {
		f, err := os.Create(c.MetricsOut)
		if err != nil {
			return err
		}
		if err := DefaultRegistry().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.TraceOut != "" {
		DefaultTracer().SetEnabled(false)
		f, err := os.Create(c.TraceOut)
		if err != nil {
			return err
		}
		if err := DefaultTracer().WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.TimeseriesOut != "" {
		s := DefaultSampler()
		if s.Samples() == 0 {
			// Short runs (or replays with no NMA in the loop) may never
			// cross a sampling period; one final sample still records
			// the run's totals as a single window.
			s.FinalSample()
		}
		s.SetEnabled(false)
		f, err := os.Create(c.TimeseriesOut)
		if err != nil {
			return err
		}
		write := s.WriteJSON
		if strings.HasSuffix(c.TimeseriesOut, ".csv") {
			write = s.WriteCSV
		}
		if werr := write(f); werr != nil {
			f.Close()
			return werr
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
