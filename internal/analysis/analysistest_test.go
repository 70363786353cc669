package analysis

// Self-hosted equivalent of golang.org/x/tools' analysistest: each
// analyzer runs over a golden package under testdata/src/<dir>, and every
// expected finding is declared in the fixture itself with a trailing
//
//	// want `regexp` `regexp...`
//
// comment on the offending line. The harness fails on unexpected
// findings, unmatched expectations, and (for clean cases) any finding at
// all. Fixture packages are type-checked from source with imports
// resolved inside testdata/src, so the suite needs no compiled artifacts.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestAnalyzers(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name       string
		analyzer   *Analyzer
		dir        string      // under testdata/src
		importPath string      // package path the fixture is checked as
		clean      bool        // expect zero findings, ignore want comments
		extra      []*Analyzer // run alongside (e.g. a feeder for ignorecheck)
	}{
		{"nondeterminism", Nondeterminism, "nondet", "coreda/internal/sim", false, nil},
		{"nondeterminism/chaos-scoped", Nondeterminism, "nondet", "coreda/internal/chaos", false, nil},
		{"nondeterminism/rtbridge-allowlisted", Nondeterminism, "nondet_allowed", "coreda/internal/rtbridge", true, nil},
		{"nondeterminism/cmd-allowlisted", Nondeterminism, "nondet_allowed", "coreda/cmd/coreda-node", true, nil},
		// "chaosnet" shares the "chaos" prefix as a string but is not a
		// subpackage; the scope match must not swallow it.
		{"nondeterminism/chaosnet-allowlisted", Nondeterminism, "nondet_allowed", "coreda/internal/chaosnet", true, nil},
		// The control-plane bus joined the simulation scope: event flow
		// must not read the wall clock or the global rand source.
		{"nondeterminism/notify-scoped", Nondeterminism, "nondet", "coreda/internal/notify", false, nil},
		{"rewardconst", RewardConst, "rewardconst", "coreda/internal/experiments", false, nil},
		{"rewardconst/core-canonical", RewardConst, "rewardcore", "coreda/internal/core", true, nil},
		{"schedonly", SchedOnly, "schedonly", "coreda/internal/core", false, nil},
		// The experiments layer joined the single-threaded scope when
		// parrun became its only concurrency outlet: the same fixture's
		// spawns must be flagged there too.
		{"schedonly/experiments-scoped", SchedOnly, "schedonly", "coreda/internal/experiments", false, nil},
		// The fault injector joined the single-threaded scope with the
		// chaos package: a goroutine there would unseed the fault schedule.
		{"schedonly/chaos-scoped", SchedOnly, "schedonly", "coreda/internal/chaos", false, nil},
		{"schedonly/concurrent-pkg-allowed", SchedOnly, "schedonly", "coreda/internal/sensornet", true, nil},
		{"schedonly/chaosnet-allowed", SchedOnly, "schedonly", "coreda/internal/chaosnet", true, nil},
		{"schedonly/parrun-allowance", SchedOnly, "schedonly_parrun", "coreda/internal/parrun", true, nil},
		{"droppederr", DroppedErr, "droppederr", "coreda/internal/store", false, nil},
		{"droppederr/root-out-of-scope", DroppedErr, "droppederr", "coreda", true, nil},
		{"toolidmap", ToolIDMap, "toolidmap", "coreda/internal/report", false, nil},
		{"shardaffinity", ShardAffinity, "shardaffinity", "coreda/internal/fleet", false, nil},
		// The same fixture outside the shard-scoped packages is silent.
		{"shardaffinity/out-of-scope", ShardAffinity, "shardaffinity", "coreda/internal/rtbridge", true, nil},
		// The cluster package joined the shard scope with the peer ring:
		// only (*Node).Start and its acceptLoop may spawn there.
		{"shardaffinity/cluster-scoped", ShardAffinity, "shardaffinity_cluster", "coreda/internal/cluster", false, nil},
		{"lockheld", LockHeld, "lockheld", "coreda/internal/rtbridge", false, nil},
		{"lockheld/out-of-scope", LockHeld, "lockheld", "coreda/internal/stats", true, nil},
		// The cluster package joined the lock-discipline scope with peer
		// replication: no node mutex across peer socket I/O or the
		// conn-checkout channel.
		{"lockheld/cluster-scoped", LockHeld, "lockheld_cluster", "coreda/internal/cluster", false, nil},
		// parrun.Map is a blocking synchronization point: no shard mutex
		// may be held across a wave. The bus joined the lock scope too.
		{"lockheld/parrun-map", LockHeld, "lockheld_parrun", "coreda/internal/fleet", false, nil},
		{"lockheld/notify-scoped", LockHeld, "lockheld", "coreda/internal/notify", false, nil},
		// The store joined the lock-discipline scope with the backend
		// refactor; inside it the blanket store-is-blocking rule defers to
		// the same-package fixpoint.
		{"lockheld/store-scoped", LockHeld, "lockheld_store", "coreda/internal/store", false, nil},
		{"hotalloc", HotAlloc, "hotalloc", "coreda/internal/hotalloc", false, nil},
		// ignorecheck judges directives against what actually ran:
		// Nondeterminism is the feeder, droppederr/"all" stay un-judged.
		{"ignorecheck", IgnoreCheck, "ignorecheck", "coreda/internal/sim", false, []*Analyzer{Nondeterminism}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			analyzers := append([]*Analyzer{tc.analyzer}, tc.extra...)
			needsTypes := false
			for _, a := range analyzers {
				needsTypes = needsTypes || a.NeedsTypes
			}
			pkg := loadFixture(t, tc.dir, tc.importPath, needsTypes)
			findings := RunPackage(pkg, analyzers)
			if tc.clean {
				for _, f := range findings {
					t.Errorf("unexpected finding in clean case: %s", f)
				}
				return
			}
			checkWants(t, pkg, findings)
		})
	}
}

// TestTestOnly runs testonly over its fixture as one package of a
// two-package program: the fixture, checked as an internal package, and
// a root package (import path "coreda") that calls into it and aliases
// one of its types. Stale testonly directives are ignorecheck's to flag.
func TestTestOnly(t *testing.T) {
	t.Parallel()
	pkg := loadFixture(t, "testonly", "coreda/internal/testonly", true)
	root := loadFixture(t, "testonly_root", "coreda", true, pkg)
	pkg.Program = &Program{loaded: true, pkgs: []*Package{pkg, root}}
	checkWants(t, pkg, RunPackage(pkg, []*Analyzer{TestOnly, IgnoreCheck}))
}

// loadFixture parses (and optionally type-checks) testdata/src/<dir> as a
// package with the given import path. Imports of a deps package's import
// path resolve to that already checked package, so objects are shared.
func loadFixture(t *testing.T, dir, importPath string, needsTypes bool, deps ...*Package) *Package {
	t.Helper()
	base := filepath.Join("testdata", "src", dir)
	fset := token.NewFileSet()
	files, err := parseFixtureDir(fset, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", base)
	}
	pkg := &Package{
		Dir:        base,
		ImportPath: importPath,
		Name:       files[0].Name.Name,
		Fset:       fset,
		Files:      files,
	}
	if needsTypes {
		imp := &fixtureImporter{
			fset:  fset,
			root:  filepath.Join("testdata", "src"),
			cache: map[string]*types.Package{},
			std:   importer.ForCompiler(fset, "source", nil),
		}
		for _, d := range deps {
			imp.cache[d.ImportPath] = d.TypesPkg
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(importPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", dir, err)
		}
		pkg.TypesPkg, pkg.TypesInfo = tpkg, info
	}
	return pkg
}

func parseFixtureDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// fixtureImporter resolves imports against testdata/src first (so
// fixtures can import the miniature "adl" package) and falls back to the
// standard library's source importer.
type fixtureImporter struct {
	fset  *token.FileSet
	root  string
	cache map[string]*types.Package
	std   types.Importer
}

func (imp *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(imp.root, path)
	if _, err := os.Stat(dir); err != nil {
		return imp.std.Import(path)
	}
	files, err := parseFixtureDir(imp.fset, dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, imp.fset, files, nil)
	if err != nil {
		return nil, err
	}
	imp.cache[path] = pkg
	return pkg, nil
}

// wantRx extracts the backquoted expectations of a // want comment.
var wantRx = regexp.MustCompile("`([^`]+)`")

type wantExpect struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// checkWants matches findings against the fixture's want comments 1:1.
func checkWants(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	var wants []*wantExpect
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				// A //coreda:vet-ignore line cannot carry a separate
				// comment, so ignorecheck fixtures embed the expectation
				// in the directive text; extract it from there too.
				if i := strings.Index(text, "want `"); strings.HasPrefix(text, directivePrefix) && i >= 0 {
					text = text[i:]
				}
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRx.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Errorf("%s: malformed want comment (no backquoted regexp): %s", pos, text)
					continue
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, m[1], err)
						continue
					}
					wants = append(wants, &wantExpect{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}
