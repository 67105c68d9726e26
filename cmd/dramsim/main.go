// Command dramsim replays a swap trace against the DRAM timing model
// and reports channel bandwidth, latency, and refresh statistics —
// the standalone front-end to the cycle-approximate simulator (§7).
//
// Usage:
//
//	dramsim [-trace FILE] [-channels N] [-ranks N] [-device 8|16|32]
//	        [-queued] [-trace-out FILE]
//	        [-timeseries-out FILE] [-sample-every N]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// The trace is tracegen's JSON-lines output; without -trace it
// generates the default web front-end trace internally.
// -timeseries-out writes the run's recording, its one metric export
// (see internal/telemetry and cmd/telemetryck): the replay drives no
// NMA simulator, so it holds a single sample of the run's totals.
package main

import (
	"flag"
	"fmt"
	"os"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/sfm"
	"xfm/internal/telemetry"
	"xfm/internal/trace"
	"xfm/internal/workload"
)

func main() {
	traceFile := flag.String("trace", "", "trace file to replay (default: generate internally)")
	channels := flag.Int("channels", 4, "memory channels")
	ranks := flag.Int("ranks", 2, "ranks per channel")
	device := flag.Int("device", 32, "DRAM chip capacity in Gbit (8, 16, 32)")
	queued := flag.Bool("queued", false, "route requests through the FR-FCFS queued controller")
	var tel telemetry.CLI
	tel.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// The telemetry flags, the device and the geometry are checked
	// before tel.Start opens any artifact file.
	if err := tel.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var dev dram.DeviceConfig
	switch *device {
	case 8:
		dev = dram.Device8Gb
	case 16:
		dev = dram.Device16Gb
	case 32:
		dev = dram.Device32Gb
	default:
		fmt.Fprintf(os.Stderr, "unknown device %dGb\n", *device)
		os.Exit(2)
	}
	mapping := memctrl.SkylakeMapping(*channels, *ranks, dev)
	if err := mapping.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if err := tel.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var records []trace.Record
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		records, err = trace.ReadAll(trace.NewReader(f))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		w := workload.DefaultWebFrontend()
		res, err := w.Run(sfm.NewCPUBackend(compress.NewLZFast(), 0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		records = res.Trace
	}

	tm := dram.DDR5_3200().WithTRFC(dev.TRFC)
	var ctl *memctrl.Controller
	var qctl *memctrl.QueuedController
	if *queued {
		qctl = memctrl.NewQueuedController(mapping, tm)
		ctl = qctl.Inner()
	} else {
		ctl = memctrl.NewController(mapping, tm)
	}

	var last dram.Ps
	for i, r := range records {
		addr := (int64(i) * 4096) % (ctl.Map.TotalBytes() - 4096)
		kind := dram.Read
		if r.Op == trace.SwapOut {
			kind = dram.Write
		}
		size := int(r.Bytes)
		if size <= 0 {
			size = 4096
		}
		req := memctrl.Request{Addr: addr, Size: size, Kind: kind, Stream: 0, At: r.AtPs}
		var done dram.Ps
		if qctl != nil {
			for !qctl.Enqueue(req) {
				qctl.ServeOne() // back-pressure: drain one before retrying
			}
			done, _ = qctl.ServeOne()
		} else {
			done = ctl.Submit(req)
		}
		if done > last {
			last = done
		}
	}
	if qctl != nil {
		if d := qctl.Drain(); d > last {
			last = d
		}
		qs := qctl.Stats()
		fmt.Printf("queued controller: %d reads, %d writes, %d FR reorders, %d drains\n",
			qs.ReadsServed, qs.WritesServed, qs.FRReorders, qs.DrainEntries)
	}

	read, written := ctl.TotalBytes()
	st := ctl.Stream(0)
	fmt.Printf("replayed %d records over %d channels × %d ranks (%s, tRFC %dns)\n",
		len(records), *channels, *ranks, dev.Name, dev.TRFC/dram.Nanosecond)
	fmt.Printf("bytes: %d read, %d written\n", read, written)
	fmt.Printf("bus utilization: %.2f%%\n", ctl.TotalBusUtilization(last)*100)
	fmt.Printf("mean access latency: %.1f ns (max %.1f ns)\n",
		st.MeanLatencyNs(), float64(st.MaxLatPs)/float64(dram.Nanosecond))
	if st.RowAccesses > 0 {
		fmt.Printf("row buffer hit rate: %.1f%%\n", float64(st.RowHits)/float64(st.RowAccesses)*100)
	}
	refs := int64(0)
	for c := 0; c < *channels; c++ {
		for rk := 0; rk < *ranks; rk++ {
			refs += ctl.Channel(c).Rank(rk).Stats().REFs
		}
	}
	fmt.Printf("refresh commands issued: %d\n", refs)

	if err := tel.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
