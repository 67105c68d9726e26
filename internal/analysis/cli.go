package analysis

import (
	"flag"
	"fmt"
	"io"
)

// CLIMain is the xfmlint entry point, factored out of cmd/xfmlint so
// the unit tests can prove the CI gate exits non-zero on a seeded
// violation. It lints the whole module at or above -C and prints each
// unsuppressed diagnostic in vet style, one per line. Exit codes: 0
// clean, 1 unsuppressed diagnostics, 2 usage or load/type-check failure.
func CLIMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xfmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory to lint from (module root is found above it)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: xfmlint [-C dir]\nlints the whole module; rules: %v\n", KnownRules)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "xfmlint: unexpected argument %q: the whole module is always linted\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	prog, err := NewContext().Load(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "xfmlint: %v\n", err)
		return 2
	}
	diags := prog.Run(DefaultRules())
	active := Unsuppressed(diags)
	for _, d := range active {
		fmt.Fprintln(stdout, d)
	}
	fmt.Fprintf(stderr, "xfmlint: %d packages, %d diagnostics (%d suppressed)\n",
		len(prog.Packages), len(active), len(diags)-len(active))
	if len(active) > 0 {
		return 1
	}
	return 0
}
