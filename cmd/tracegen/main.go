// Command tracegen runs the synthetic web front-end over a
// far-memory heap and writes its swap-in/out trace (§7's methodology)
// to stdout or a file, one JSON line per record (internal/trace).
//
// Usage:
//
//	tracegen [-o FILE] [-pages N] [-queries N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xfm/internal/compress"
	"xfm/internal/sfm"
	"xfm/internal/trace"
	"xfm/internal/workload"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	pages := flag.Int("pages", 512, "data set size in pages")
	queries := flag.Int("queries", 4000, "number of queries to run")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	w := workload.DefaultWebFrontend()
	w.Pages = *pages
	w.Queries = *queries
	w.Seed = *seed

	res, err := w.Run(sfm.NewCPUBackend(compress.NewLZFast(), 0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = f
	}
	tw := trace.NewWriter(sink)
	for _, r := range res.Trace {
		if err := tw.Write(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%d records; faults=%d prefetches=%d promotion=%.1f%%\n",
		tw.Count(), res.HeapStats.DemandFaults, res.HeapStats.PrefetchedPages,
		res.PromotionRate*100)
}
