//go:build race

package xfm

// raceEnabled reports that this binary was built with -race, whose
// instrumentation adds allocations; alloc-count tests skip under it.
const raceEnabled = true
