package analysis

import (
	"flag"
	"fmt"
	"io"
)

// CLIMain is the xfmlint entry point, factored out of cmd/xfmlint so
// the unit tests can prove the CI gate exits non-zero on a seeded
// violation. Exit codes: 0 clean, 1 unsuppressed diagnostics, 2 usage
// or load/type-check failure.
func CLIMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xfmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	showSuppressed := fs.Bool("show-suppressed", false, "also print suppressed diagnostics (text mode)")
	rulesSpec := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	dir := fs.String("C", ".", "directory to lint from (module root is found above it)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: xfmlint [-json] [-show-suppressed] [-rules r1,r2] [-C dir] [patterns...]\n")
		fmt.Fprintf(stderr, "default pattern is ./...; rules: %v\n", KnownRules)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rules, err := SelectRules(DefaultRules(), *rulesSpec)
	if err != nil {
		fmt.Fprintf(stderr, "xfmlint: %v\n", err)
		return 2
	}
	prog, err := NewContext().Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "xfmlint: %v\n", err)
		return 2
	}
	diags := prog.Run(rules)
	active := Unsuppressed(diags)
	if *jsonOut {
		// JSON output carries every diagnostic, suppressed included,
		// so the CI artifact is a full audit trail.
		if err := WriteJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "xfmlint: %v\n", err)
			return 2
		}
	} else {
		shown := active
		if *showSuppressed {
			shown = diags
		}
		WriteText(stdout, shown)
	}
	fmt.Fprintf(stderr, "xfmlint: %d packages, %d diagnostics (%d suppressed)\n",
		len(prog.Packages), len(active), len(diags)-len(active))
	if len(active) > 0 {
		return 1
	}
	return 0
}
