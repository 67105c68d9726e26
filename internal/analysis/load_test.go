package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadImportCycle: the memoizing loader must detect a module-local
// import cycle and fail the load with a named culprit instead of
// recursing forever.
func TestLoadImportCycle(t *testing.T) {
	_, err := sharedCtx().Load(filepath.Join("testdata", "src", "cyclefix"))
	if err == nil {
		t.Fatal("loading a cyclic module should fail")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error should name the import cycle, got: %v", err)
	}
	if !strings.Contains(err.Error(), "cyclefix/") {
		t.Errorf("error should name a package on the cycle, got: %v", err)
	}
}

// TestContextSharedAcrossLoads: one Context serves several Loads with
// a single FileSet and one type-checked standard library, which is
// what keeps the fixture suite fast and positions comparable.
func TestContextSharedAcrossLoads(t *testing.T) {
	ctx := sharedCtx()
	p1, err := ctx.Load(filepath.Join("testdata", "src", "unreachfix"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ctx.Load(filepath.Join("testdata", "src", "suppressfix"))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fset != p2.Fset || p1.Fset != ctx.Fset {
		t.Error("loads from one Context must share its FileSet")
	}
	if p1.ModPath != "unreachfix" || p2.ModPath != "suppressfix" {
		t.Errorf("module identities must stay per-load: %q, %q", p1.ModPath, p2.ModPath)
	}
}

// TestLoadSinglePackagePattern: a non-recursive pattern loads exactly
// the named package directory.
func TestLoadSinglePackagePattern(t *testing.T) {
	prog, err := sharedCtx().Load(filepath.Join("testdata", "src", "unreachfix"), "./lib")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) != 1 || prog.Packages[0].Path != "unreachfix/lib" {
		t.Errorf("want exactly unreachfix/lib, got %v", prog.Packages)
	}
}
