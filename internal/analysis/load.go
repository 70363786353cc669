package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and (best-effort) type-checked package.
type Package struct {
	Dir        string
	ImportPath string
	Name       string
	Fset       *token.FileSet
	Files      []*ast.File
	// TypesPkg/TypesInfo are nil when type-checking failed outright.
	TypesPkg  *types.Package
	TypesInfo *types.Info
	// TypeErrs holds type-check diagnostics; analysis proceeds on the
	// partial information go/types still produced.
	TypeErrs []error
	// Program is the whole program the package belongs to, for analyzers
	// that judge a declaration by its references (testonly); nil when
	// the package was loaded on its own.
	Program *Program
}

// Program is every non-test package of a module plus those of the
// consumer module nested in it (consumerModule), loaded on first use and
// shared by all packages of one Loader run.
type Program struct {
	load   func() ([]*Package, error)
	loaded bool
	pkgs   []*Package
	err    error
	uses   *useIndex
}

// consumerModule is the nested module, relative to the module root, that
// imports the module through a replace directive: its references count
// as production uses.
const consumerModule = "perfbench"

// Packages loads (once) and returns the program's packages.
func (p *Program) Packages() ([]*Package, error) {
	if !p.loaded {
		p.loaded = true
		p.pkgs, p.err = p.load()
	}
	return p.pkgs, p.err
}

func (p *Program) useIndex() (*useIndex, error) {
	if p.uses == nil {
		pkgs, err := p.Packages()
		if err != nil {
			return nil, err
		}
		p.uses = buildUseIndex(pkgs)
	}
	return p.uses, nil
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Error      *listError
}

// listError is go list's per-package error report (e.g. a directory with
// no Go files named explicitly).
type listError struct {
	Err string
}

// Loader loads, parses and type-checks packages, caching every package —
// target or dependency — so that repeated Load calls and the analyzers
// sharing one run each pay for a package's type-check exactly once. A
// Loader is not safe for concurrent use.
type Loader struct {
	fset *token.FileSet
	std  types.Importer
	// universe maps import path → go list metadata for every module-local
	// package discovered so far.
	universe map[string]*listPkg
	// listed records directories whose ./... universe was already taken.
	listed map[string]bool
	// pkgs caches fully loaded packages by import path. A nil entry marks
	// a package currently being checked (import cycles resolve to the
	// stdlib importer's error instead of recursing forever).
	pkgs map[string]*Package
	// programs holds one whole-program view per module root.
	programs map[string]*Program
}

// NewLoader returns an empty loader with a fresh FileSet.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		universe: map[string]*listPkg{},
		listed:   map[string]bool{},
		pkgs:     map[string]*Package{},
		programs: map[string]*Program{},
	}
}

// Load discovers the packages matching patterns (e.g. "./...") with
// `go list` run in dir, parses their Go files and type-checks them from
// source. Module-local imports resolve against the full module (./...
// from dir); everything else falls back to the standard library's source
// importer. Only the standard library is used.
//
// Patterns that match no packages are an error: a vet run over nothing
// must not pass as a clean run. dir must be the module root: it is also
// the root of the whole program the returned packages belong to.
func Load(dir string, patterns []string) ([]*Package, error) {
	return NewLoader().Load(dir, patterns)
}

// Load implements the package-level Load on a caching loader: packages
// already loaded by a previous call (as targets or as dependencies) are
// returned without re-parsing or re-checking.
func (l *Loader) Load(dir string, patterns []string) ([]*Package, error) {
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	if !l.listed[dir] {
		l.listed[dir] = true
		if all, err := goList(dir, []string{"./..."}); err == nil {
			for _, p := range all {
				if _, ok := l.universe[p.ImportPath]; !ok {
					l.universe[p.ImportPath] = p
				}
			}
		}
	}
	for _, p := range targets {
		l.universe[p.ImportPath] = p
	}

	var pkgs []*Package
	for _, lp := range targets {
		if lp.Error != nil {
			return nil, fmt.Errorf("loading %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.load(lp.ImportPath)
		if err != nil {
			return nil, err
		}
		if pkg.Program == nil {
			pkg.Program = l.program(dir)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no Go packages matched %v", patterns)
	}
	return pkgs, nil
}

// program returns the whole-program view rooted at the module root dir:
// ./... of the module, then ./... of the consumer module when present.
func (l *Loader) program(dir string) *Program {
	if p := l.programs[dir]; p != nil {
		return p
	}
	p := &Program{load: func() ([]*Package, error) {
		pkgs, err := l.Load(dir, []string{"./..."})
		if err != nil {
			return nil, err
		}
		sub := filepath.Join(dir, consumerModule)
		if _, err := os.Stat(filepath.Join(sub, "go.mod")); err != nil {
			return pkgs, nil
		}
		more, err := l.Load(sub, []string{"./..."})
		if err != nil {
			return nil, err
		}
		return append(pkgs, more...), nil
	}}
	l.programs[dir] = p
	return p
}

// load parses and type-checks one module-local package (found in the
// universe), memoizing the result.
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", importPath)
		}
		return pkg, nil
	}
	lp := l.universe[importPath]
	if lp == nil {
		return nil, fmt.Errorf("package %s not in load universe", importPath)
	}
	files, err := parseFiles(l.fset, lp, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = nil // cycle guard
	pkg := &Package{
		Dir:        lp.Dir,
		ImportPath: lp.ImportPath,
		Name:       lp.Name,
		Fset:       l.fset,
		Files:      files,
	}
	pkg.TypesPkg, pkg.TypesInfo, pkg.TypeErrs = l.check(lp.ImportPath, files)
	l.pkgs[importPath] = pkg
	return pkg, nil
}

func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func parseFiles(fset *token.FileSet, lp *listPkg, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer for module-local dependencies: targets
// and dependencies share one cache, so a package that is both is checked
// once with full info rather than once per role.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.universe[path]; !ok {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if pkg.TypesPkg == nil {
		if len(pkg.TypeErrs) > 0 {
			return nil, fmt.Errorf("type-checking %s: %v", path, pkg.TypeErrs[0])
		}
		return nil, fmt.Errorf("type-checking %s failed", path)
	}
	return pkg.TypesPkg, nil
}

// check type-checks one package, tolerating errors: it returns whatever
// partial package and info go/types produced, plus the diagnostics.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && len(errs) == 0 {
		errs = append(errs, err)
	}
	if pkg == nil {
		return nil, nil, errs
	}
	return pkg, info, errs
}
