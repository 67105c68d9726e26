package experiments

import (
	"time"

	"xfm/internal/parallel"
	"xfm/internal/stats"
)

// RunResult is one experiment's rendered output.
type RunResult struct {
	Experiment Experiment
	Table      *stats.Table
	Elapsed    time.Duration
}

// clock is the injected wall-clock behind the Elapsed annotation. It
// is the runner's only nondeterministic input: tables are produced by
// Run(), which never reads it, so bit-identical output needs only a
// stubbed clock (see determinism_test.go). The single time.Now
// reference below is the one sanctioned wall-clock read in the
// experiments package.
var clock = time.Now //xfm:ignore sim-determinism Elapsed is a wall-clock annotation in human-facing output; tables never read it

// RunExperiments runs the given experiments on up to workers
// goroutines (0 = GOMAXPROCS, 1 = serial) and returns results aligned
// with the input order. Every experiment is a pure function of its
// inputs, so the tables are identical at any worker count; only
// wall-clock changes.
func RunExperiments(list []Experiment, workers int) []RunResult {
	out := make([]RunResult, len(list))
	parallel.ForEach(len(list), parallel.Workers(workers), func(i int) {
		start := clock()
		tbl := list[i].Run()
		out[i] = RunResult{Experiment: list[i], Table: tbl, Elapsed: clock().Sub(start)}
	})
	return out
}
