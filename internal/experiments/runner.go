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

// RunExperiments runs the given experiments on up to workers
// goroutines (0 = GOMAXPROCS, 1 = serial) and returns results aligned
// with the input order. Every experiment is a pure function of its
// inputs, so the tables are identical at any worker count; only
// Elapsed, a wall-clock annotation no table reads, changes.
func RunExperiments(list []Experiment, workers int) []RunResult {
	out := make([]RunResult, len(list))
	parallel.ForEach(len(list), parallel.Workers(workers), func(i int) {
		start := time.Now()
		tbl := list[i].Run()
		out[i] = RunResult{Experiment: list[i], Table: tbl, Elapsed: time.Since(start)}
	})
	return out
}
