// Command xfmbench regenerates every table and figure of the paper's
// evaluation. With no arguments it runs the full suite; pass
// experiment ids (fig1 fig3 fig6 fig8 fig11 fig11sim fig12 table1
// table2 table3 sec32 energy capacity emulator ablations; -list prints
// them) to run a subset.
//
// Usage:
//
//	xfmbench [-list]
//	         [-trace-out FILE] [-timeseries-out FILE] [-sample-every N]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-nma-stepped]
//	         [-chaos SPEC]
//	         [experiment ...]
//
// With -timeseries-out FILE the flight recorder samples every row
// of the metric catalogue every -sample-every refresh windows of
// simulated time and writes the recording (JSON) on exit — the one
// metric export; telemetryck validates it and prints its health
// verdict. The experiments run one after another, so a recording is one
// timeline, bit-identical from run to run.
//
// With -chaos SPEC the experiments are skipped and the deterministic
// fault-injection gate runs instead: the full seed corpus is swapped
// through a backend wired to the injected fault plane (spurious
// queue-fulls, ECC flips, refresh storms; see internal/fault) and
// every page is byte-verified on the way back.
// SPEC is a preset ("ci-default", "off"), "site=p" fields and
// "storm=period:len[:phase]"; the schedule and the corpus data come
// from seed 1 (two runs with the same spec are bit-identical,
// recordings included). A spec that does not parse exits 2 before any
// artifact opens. The run exits nonzero on any silently corrupted
// page, when the pages that failed as uncorrectable do not number the
// injected double-bit flips, or when a site or storm the spec enables
// never fired.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xfm/internal/chaos"
	"xfm/internal/experiments"
	"xfm/internal/fault"
	"xfm/internal/nma"
	"xfm/internal/telemetry"
)

// chaosSeed seeds the -chaos fault schedule and corpus data.
const chaosSeed = 1

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	nmaStepped := flag.Bool("nma-stepped", false, "disable the NMA idle fast-forward and step every refresh window (slow; for proving recordings are identical either way)")
	chaosSpec := flag.String("chaos", "", "run the fault-injection gate with this chaos spec (preset, site=p fields, storm=period:len[:phase]) instead of the experiments; every site and storm it enables must fire")
	var tel telemetry.CLI
	tel.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Observable results are identical with and without the
	// fast-forward; CI records a run each way and diffs the recordings
	// with `telemetryck -diff` to prove it (DESIGN §6b).
	nma.SetFastForward(!*nmaStepped)

	// Arguments are checked before tel.Start opens any artifact file, so
	// -list, a bad id, chaos spec or telemetry flag leaves no empty
	// profile behind.
	if err := tel.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	var selected []experiments.Experiment
	if flag.NArg() == 0 {
		selected = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, err := experiments.Lookup(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var plan fault.Plan
	if *chaosSpec != "" {
		var err error
		if plan, err = fault.ParseSpec(*chaosSpec, chaosSeed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if err := tel.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *chaosSpec != "" {
		res, err := chaos.Run(plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(res)
		gateErr := res.Gate()
		if err := tel.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if gateErr != nil {
			fmt.Fprintln(os.Stderr, gateErr)
			os.Exit(1)
		}
		return
	}

	for _, e := range selected {
		start := time.Now()
		tbl := e.Run()
		elapsed := time.Since(start)
		fmt.Printf("=== %s ===\n%s", e.Title, tbl.String())
		fmt.Printf("(%s in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}

	if err := tel.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
