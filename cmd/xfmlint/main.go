// Command xfmlint runs the repository's domain static-analysis suite:
// unreachable, plus directive, the validation of the //xfm:ignore
// comments that suppress it. It is wired into CI as a failing gate; see
// DESIGN.md §9 for the rule catalogue, the suppression syntax and which
// other gate owns data races, lock order, determinism, allocations and
// atomic access.
//
// Usage:
//
//	xfmlint [-C dir]
//
// It lints the whole module at or above dir (default: the current
// directory) and prints each unsuppressed diagnostic as one
// "file:line:col: rule: message" line; any argument is a usage error.
package main

import (
	"os"

	"xfm/internal/analysis"
)

func main() {
	os.Exit(analysis.CLIMain(os.Args[1:], os.Stdout, os.Stderr))
}
