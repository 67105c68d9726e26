// Command xfmlint runs the repository's domain static-analysis suite:
// atomic-field, guardedby, hotpath-alloc, lock-order, unreachable and
// sim-determinism, plus //xfm: directive validation. It is wired into
// CI as a failing gate; see DESIGN.md §9 for the rule catalogue and
// suppression syntax.
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
