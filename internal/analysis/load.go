// Package analysis is the xfmlint framework: a stdlib-only static
// analyzer that loads a Go module with go/parser, type-checks it with
// go/types (stdlib dependencies come from the source importer), and
// runs domain rules over the typed ASTs. Its one invariant the compiler
// cannot see is that nothing ships that no binary reaches (unreachable);
// the other rule (directive) keeps the //xfm:ignore suppressions
// honest. Data races, lock order, determinism, steady-state allocations
// and atomic access are owned by other gates — the race detector, the
// lock hierarchy of DESIGN §6 with go test's deadlock on a nest against
// it, the *Deterministic tests and recording diffs, the AllocsPerRun
// tests and the typed sync/atomic API; DESIGN §9 has the table.
//
// Suppressions use the //xfm:ignore comment directive; see directive.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the linted module.
type Package struct {
	Path  string // import path, e.g. "xfm/internal/sfm"
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded, type-checked set of packages plus the parsed
// //xfm: directive state rules consume.
type Program struct {
	Fset     *token.FileSet
	ModPath  string
	ModDir   string
	Packages []*Package // every package of the module

	// Directive state, populated by scanDirectives during Load.
	suppressions   []suppression
	directiveDiags []Diagnostic
}

// Context owns the FileSet and the (expensive) source importer for
// stdlib packages, so several Loads — e.g. the real tree plus test
// fixtures — share one type-checked standard library.
type Context struct {
	Fset *token.FileSet
	std  types.Importer
}

// NewContext builds a load context with a fresh FileSet and a source
// importer for out-of-module (standard library) packages.
func NewContext() *Context {
	fset := token.NewFileSet()
	return &Context{Fset: fset, std: importer.ForCompiler(fset, "source", nil)}
}

// loader tracks per-Load state: local packages parsed and checked so
// far, and the in-progress set for import-cycle detection.
type loader struct {
	ctx      *Context
	modPath  string
	modDir   string
	goVer    string
	byPath   map[string]*Package
	checking map[string]bool
	typeErrs []error
}

// Load parses and type-checks every package of the module rooted at
// (or above) dir. Test files (_test.go) and testdata/vendor directories
// are skipped: xfmlint checks the invariants of shipped code.
func (c *Context) Load(dir string) (*Program, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, goVer, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		ctx:      c,
		modPath:  modPath,
		modDir:   modDir,
		goVer:    goVer,
		byPath:   map[string]*Package{},
		checking: map[string]bool{},
	}
	dirs, err := packageDirs(modDir)
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	prog := &Program{Fset: c.Fset, ModPath: modPath, ModDir: modDir}
	for _, d := range dirs {
		ip, err := ld.importPathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := ld.check(ip)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	if len(ld.typeErrs) > 0 {
		return nil, fmt.Errorf("type errors:\n%s", joinErrs(ld.typeErrs, 10))
	}
	for _, pkg := range prog.Packages {
		scanDirectives(prog, pkg)
	}
	return prog, nil
}

func joinErrs(errs []error, max int) string {
	var b strings.Builder
	for i, e := range errs {
		if i == max {
			fmt.Fprintf(&b, "... and %d more", len(errs)-max)
			break
		}
		fmt.Fprintf(&b, "\t%v\n", e)
	}
	return b.String()
}

// findModule walks upward from dir to the enclosing go.mod and returns
// its directory, module path, and go version.
func findModule(dir string) (modDir, modPath, goVer string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			modPath, goVer = parseModFile(string(data))
			if modPath == "" {
				return "", "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
			}
			return d, modPath, goVer, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", "", fmt.Errorf("analysis: no go.mod found at or above %s", dir)
		}
		d = parent
	}
}

func parseModFile(src string) (modPath, goVer string) {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if p, ok := strings.CutPrefix(line, "module "); ok && modPath == "" {
			modPath = strings.Trim(strings.TrimSpace(p), `"`)
		}
		if v, ok := strings.CutPrefix(line, "go "); ok && goVer == "" {
			goVer = "go" + strings.TrimSpace(v)
		}
	}
	return modPath, goVer
}

// packageDirs lists the directories under root that contain at least
// one non-test .go file.
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if lintableFile(e) {
			return true
		}
	}
	return false
}

func lintableFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

func (ld *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.modDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return ld.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, ld.modDir)
	}
	return ld.modPath + "/" + filepath.ToSlash(rel), nil
}

func (ld *loader) dirForImport(path string) string {
	if path == ld.modPath {
		return ld.modDir
	}
	rel := strings.TrimPrefix(path, ld.modPath+"/")
	return filepath.Join(ld.modDir, filepath.FromSlash(rel))
}

// check parses and type-checks the local package at import path,
// memoized; local imports recurse, everything else goes to the shared
// stdlib importer.
func (ld *loader) check(path string) (*Package, error) {
	if pkg, ok := ld.byPath[path]; ok {
		return pkg, nil
	}
	if ld.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	ld.checking[path] = true
	defer delete(ld.checking, path)

	dir := ld.dirForImport(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !lintableFile(e) {
			continue
		}
		f, err := parser.ParseFile(ld.ctx.Fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	cfg := &types.Config{
		Importer:  importerFunc(func(p string) (*types.Package, error) { return ld.importPkg(p) }),
		GoVersion: ld.goVer,
		Error: func(err error) {
			ld.typeErrs = append(ld.typeErrs, err)
		},
	}
	tpkg, _ := cfg.Check(path, ld.ctx.Fset, files, info)
	pkg := &Package{Path: path, Files: files, Types: tpkg, Info: info}
	ld.byPath[path] = pkg
	return pkg, nil
}

func (ld *loader) importPkg(path string) (*types.Package, error) {
	if path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/") {
		pkg, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.ctx.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
