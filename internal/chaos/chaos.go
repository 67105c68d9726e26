// Package chaos is the fault-injection gate: it drives the full seed
// corpus through an XFM backend wired to a deterministic fault.Injector
// and verifies zero silent corruption end to end. Every page swapped
// out must come back byte-identical despite injected spurious
// queue-fulls, single-bit ECC flips and refresh storms; the one fault
// SECDED cannot repair, a double-bit flip, must fail its page with a
// typed *xfm.UncorrectableError, and nothing else may (DESIGN §10).
//
// Runs are bit-reproducible: for a fixed spec and seed two runs produce
// identical Results and identical flight-recorder dumps, which CI
// checks with telemetryck -diff.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"xfm/internal/compress"
	"xfm/internal/corpus"
	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/xfm"
)

// batchPages is the batch size of the run's swap-out and swap-in calls.
const batchPages = 16

// Config parameterizes one chaos run.
type Config struct {
	// Plan is the fault schedule (fault.ParseSpec parses one from the
	// -chaos grammar); its Seed seeds both the injector and the corpus
	// generators.
	Plan fault.Plan
	// PagesPerCorpus is how many 4 KiB pages of each corpus to swap
	// (default 64).
	PagesPerCorpus int
}

// Result summarizes one chaos run. All fields are deterministic for a
// fixed Config.
type Result struct {
	Corpora, Pages int
	// Mismatches counts pages that came back wrong, or failed with
	// anything but an uncorrectable ECC error — the gate's
	// zero-silent-corruption invariant is Mismatches == 0.
	Mismatches int
	// Uncorrectable counts pages that failed with *xfm.UncorrectableError:
	// one per injected double-bit flip.
	Uncorrectable int
	Injected      [fault.NumSites]int64
	StormWindows  int64
	// Errors holds the first few verification failures, for the report.
	Errors []string

	plan fault.Plan // what the gate requires to have fired
}

// String renders the run report.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos: %d corpora, %d pages, %d mismatches, %d uncorrectable\n",
		r.Corpora, r.Pages, r.Mismatches, r.Uncorrectable)
	fmt.Fprintf(&sb, "chaos: injected")
	for s := fault.Site(0); s < fault.NumSites; s++ {
		if s == fault.SiteRefreshStorm {
			continue
		}
		fmt.Fprintf(&sb, " %s=%d", s, r.Injected[s])
	}
	fmt.Fprintf(&sb, " storm-windows=%d\n", r.StormWindows)
	for _, e := range r.Errors {
		fmt.Fprintf(&sb, "chaos: FAIL %s\n", e)
	}
	return sb.String()
}

// Gate checks the run against the chaos gate; its strictness comes from
// the plan. Zero silent corruption is always required: every page came
// back byte-identical or failed with *xfm.UncorrectableError, and those
// failures number exactly the injected double-bit flips. Every site the
// plan enables must have fired at least once, and a plan with storms
// must have stormed at least one window, so a quietly inert injector
// cannot pass.
func (r *Result) Gate() error {
	if r.Mismatches > 0 {
		return fmt.Errorf("chaos: %d of %d pages lost or corrupted", r.Mismatches, r.Pages)
	}
	if multi := r.Injected[fault.SiteECCMulti]; int64(r.Uncorrectable) != multi {
		return fmt.Errorf("chaos: %d pages failed uncorrectable, but %d double-bit flips were injected", r.Uncorrectable, multi)
	}
	for s := fault.Site(0); s < fault.NumSites; s++ {
		if r.plan.Probs[s] > 0 && r.Injected[s] < 1 {
			return fmt.Errorf("chaos: the plan enables %s, but it never fired", s)
		}
	}
	if r.plan.Storm.Period > 0 && r.plan.Storm.Len > 0 && r.StormWindows < 1 {
		return errors.New("chaos: the plan schedules refresh storms, but no storm window was counted")
	}
	return nil
}

// Run executes one chaos run: every corpus is generated, swapped out
// through the batched path, aged a few refresh windows, swapped back in
// and byte-verified against the original. A swap-in that fails with
// *xfm.UncorrectableError is counted; any other failure is a mismatch.
func Run(cfg Config) (*Result, error) {
	if cfg.PagesPerCorpus <= 0 {
		cfg.PagesPerCorpus = 64
	}
	inj := fault.NewInjector(cfg.Plan)

	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	drv := xfm.NewDriver(sim)
	m := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
	b, err := xfm.NewShardedBackend(compress.NewLZFast(), 1<<30, 4, 0, drv, m)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	b.SetInjector(inj)

	res := &Result{plan: cfg.Plan}
	trefi := sim.Config().Timings.TREFI
	now := dram.Ps(0)
	nextID := sfm.PageID(0)
	for _, name := range corpus.Names() {
		gen, err := corpus.Get(name)
		if err != nil {
			return nil, err
		}
		pages := corpus.Pages(gen(cfg.Plan.Seed, cfg.PagesPerCorpus*sfm.PageSize), sfm.PageSize)
		for start := 0; start < len(pages); start += batchPages {
			end := start + batchPages
			if end > len(pages) {
				end = len(pages)
			}
			batch := pages[start:end]
			outs := make([]sfm.PageOut, len(batch))
			ins := make([]sfm.PageIn, len(batch))
			for i, p := range batch {
				id := nextID
				nextID++
				outs[i] = sfm.PageOut{ID: id, Data: p}
				ins[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
			}
			now += trefi
			for i, err := range b.SwapOutBatch(now, outs) {
				if err != nil {
					res.fail("corpus %s page %d: swap-out: %v", name, start+i, err)
				}
			}
			// Age the batch a few windows so storms pass over resident
			// pages and the NMA queue drains.
			now += 4 * trefi
			for i, err := range b.SwapInBatch(now, ins, true) {
				res.Pages++
				var ue *xfm.UncorrectableError
				if errors.As(err, &ue) {
					res.Uncorrectable++
					continue
				}
				if err != nil {
					res.fail("corpus %s page %d: swap-in: %v", name, start+i, err)
					continue
				}
				if !bytes.Equal(ins[i].Dst, batch[i]) {
					res.fail("corpus %s page %d: data mismatch after swap-in", name, start+i)
				}
			}
		}
		res.Corpora++
	}

	for s := fault.Site(0); s < fault.NumSites; s++ {
		res.Injected[s] = inj.Injected(s)
	}
	res.StormWindows = sim.Stats().StormWindows
	return res, nil
}

// fail records one verification failure (the report keeps the first 8).
func (r *Result) fail(format string, args ...any) {
	r.Mismatches++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}
