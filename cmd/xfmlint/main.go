// Command xfmlint runs the repository's domain static-analysis suite:
// lock-order, sim-determinism and unreachable, plus validation of the
// //xfm:ignore directives that suppress them. It is wired into CI as a
// failing gate; see DESIGN.md §9 for the rule catalogue, the
// suppression syntax and which other gate owns data races, allocations
// and atomic access.
//
// Usage:
//
//	xfmlint ./...
//	xfmlint -json ./... > xfmlint.json
//	xfmlint -rules unreachable ./...
package main

import (
	"os"

	"xfm/internal/analysis"
)

func main() {
	os.Exit(analysis.CLIMain(os.Args[1:], os.Stdout, os.Stderr))
}
