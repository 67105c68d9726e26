package telemetry

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLI bundles the observability flags shared by cmd/xfmbench and
// cmd/dramsim: the recording (the one metric export), the trace, and
// wall-clock CPU/heap profiling that composes with simulated-time
// tracing.
type CLI struct {
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
	fs.StringVar(&c.TraceOut, "trace-out", "", "record simulated-time spans and write Chrome trace-event JSON to this file at exit")
	fs.IntVar(&c.TraceBuf, "trace-buf", DefaultTraceCapacity, "span ring-buffer capacity for -trace-out (oldest spans drop when exceeded)")
	fs.StringVar(&c.TimeseriesOut, "timeseries-out", "", "record metric time series and write the flight-recorder dump to this file (JSON) at exit")
	fs.IntVar(&c.SampleEvery, "sample-every", DefaultSimEvery, "simulated-time sampling period for -timeseries-out, in refresh windows (tREFI intervals)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a runtime/pprof heap profile to this file at exit")
}

// Validate rejects flag values no recorder can honour: a sampling
// period or a span buffer below one. The programs call it before Start,
// so a rejected run opens no artifact.
func (c *CLI) Validate() error {
	if c.SampleEvery < 1 {
		return fmt.Errorf("-sample-every %d: want at least 1 refresh window", c.SampleEvery)
	}
	if c.TraceBuf < 1 {
		return fmt.Errorf("-trace-buf %d: want at least 1 span", c.TraceBuf)
	}
	return nil
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

// Finish flushes every requested artifact: the CPU profile, the Chrome
// trace, the recording, and the heap profile.
func (c *CLI) Finish() error {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuFile.Close(); err != nil {
			return err
		}
		c.cpuFile = nil
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
		if werr := s.WriteJSON(f); werr != nil {
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
