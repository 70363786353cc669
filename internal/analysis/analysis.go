// Package analysis is CoReDA's self-hosted static-analysis suite. It
// mechanically enforces the invariants the paper states but the compiler
// cannot check: reproducible simulation (all randomness through seeded
// *rand.Rand streams, all time through sim.Scheduler), the canonical
// 1000/100/50 reward constants, the documented single-threaded discipline
// of System/Hub and internal/core, no silently dropped errors, no
// order-sensitive iteration over tool/step maps — and, since v2, the
// fleet-era runtime invariants: tenant state only touched from its owning
// shard loop (shardaffinity), no mutex held across blocking calls on
// serve paths (lockheld), no heap escapes in //coreda:hotpath functions
// (hotalloc), no production declaration that only tests reference
// (testonly), and no stale suppression directives (ignorecheck).
//
// The suite is built on the standard library only (go/ast, go/parser,
// go/types, plus `go list -json` shelling for package discovery), keeping
// the module dependency-free. The cmd/coreda-vet driver walks package
// patterns, runs every analyzer and exits non-zero on findings.
//
// A finding can be suppressed with a line directive on the same line or
// the line directly above it:
//
//	//coreda:vet-ignore <analyzer> <reason>
//
// The analyzer name must match exactly ("all" suppresses every analyzer)
// and a reason is required. A directive directly above a file's package
// clause covers the whole package, for a package whose every declaration
// shares one reason (a test harness by design, under testonly).
// Directives are themselves audited by the ignorecheck analyzer: a
// reasonless directive, an unknown analyzer name, or a directive that no
// longer suppresses anything is a finding (the last with a ready-made
// deletion Fix). Ignorecheck findings cannot be suppressed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity classifies a finding for CI annotation: errors gate merges,
// warnings are advisory (both still fail the vet run — a warning you
// disagree with should be fixed or its rule changed, not ignored).
type Severity string

const (
	SeverityError   Severity = "error"
	SeverityWarning Severity = "warning"
)

// Fix is an optional machine-applicable suggestion attached to a
// finding: replace the source range [Start, End) with NewText. Rendered
// as a unified diff by coreda-vet -diff.
type Fix struct {
	Description string
	// Start and End delimit the byte range to replace, as resolved
	// positions (End exclusive). Both are in the same file.
	Start, End token.Position
	NewText    string
}

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Severity Severity
	Message  string
	// Fix, when non-nil, is a suggested edit that resolves the finding.
	Fix *Fix
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check over a single package.
type Analyzer struct {
	// Name is the identifier used in reports and ignore directives.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// NeedsTypes marks analyzers that require type information; they
	// silently skip packages whose type-check failed.
	NeedsTypes bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Dir        string
	ImportPath string
	// TypesPkg and TypesInfo are nil when type-checking was skipped or
	// failed; NeedsTypes analyzers are not run in that case.
	TypesPkg  *types.Package
	TypesInfo *types.Info
	// Program is the whole program the package belongs to, or nil.
	Program *Program

	findings *[]Finding
	// directives and ran are populated only for the ignorecheck pass,
	// which audits suppression directives after the other analyzers run.
	directives []*directive
	ran        map[string]bool
}

// Reportf records an error-severity finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Severity: SeverityError,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Report records a fully specified finding, filling in the analyzer name
// and defaulting the severity to error.
func (p *Pass) Report(f Finding) {
	if f.Analyzer == "" {
		f.Analyzer = p.Analyzer.Name
	}
	if f.Severity == "" {
		f.Severity = SeverityError
	}
	*p.findings = append(*p.findings, f)
}

// All is every analyzer of the suite, in report order. IgnoreCheck must
// come last: it audits the directives the preceding analyzers consumed.
var All = []*Analyzer{
	Nondeterminism,
	RewardConst,
	SchedOnly,
	DroppedErr,
	ToolIDMap,
	ShardAffinity,
	LockHeld,
	HotAlloc,
	TestOnly,
	IgnoreCheck,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackage runs the analyzers over one loaded package and returns the
// findings that survive //coreda:vet-ignore filtering, sorted by
// position. If the analyzer set includes IgnoreCheck it runs last,
// seeing which directives actually suppressed something.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	dirs := collectDirectives(pkg)
	var findings []Finding
	ran := map[string]bool{}
	runIgnore := false
	for _, a := range analyzers {
		if a == IgnoreCheck {
			runIgnore = true
			continue
		}
		if a.NeedsTypes && pkg.TypesInfo == nil {
			continue
		}
		ran[a.Name] = true
		a.Run(newPass(a, pkg, &findings))
	}

	// Suppress findings covered by a reasoned directive on the same line
	// or the line above, marking the directive as used for ignorecheck.
	kept := findings[:0]
	for _, f := range findings {
		if d := suppressing(dirs, f); d != nil {
			d.used = true
		} else {
			kept = append(kept, f)
		}
	}
	findings = kept

	if runIgnore {
		pass := newPass(IgnoreCheck, pkg, &findings)
		pass.directives = dirs
		pass.ran = ran
		IgnoreCheck.Run(pass)
	}
	sortFindings(findings)
	return findings
}

func newPass(a *Analyzer, pkg *Package, findings *[]Finding) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Dir:        pkg.Dir,
		ImportPath: pkg.ImportPath,
		TypesPkg:   pkg.TypesPkg,
		TypesInfo:  pkg.TypesInfo,
		Program:    pkg.Program,
		findings:   findings,
	}
}

// RunPackages runs the analyzers over every package and returns all
// findings sorted by position.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, RunPackage(pkg, analyzers)...)
	}
	sortFindings(all)
	return all
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

const directivePrefix = "coreda:vet-ignore"

// directive is one parsed //coreda:vet-ignore comment.
type directive struct {
	pos      token.Position
	end      token.Position // one past the comment text
	analyzer string         // specific analyzer name, or "all"; "" if absent
	reason   bool           // a reason string follows the analyzer name
	pkgScope bool           // sits on or above the package clause: covers the package
	used     bool           // the directive suppressed at least one finding
}

// collectDirectives parses every //coreda:vet-ignore comment in the
// package, in file order.
func collectDirectives(pkg *Package) []*directive {
	var dirs []*directive
	for _, f := range pkg.Files {
		pkgLine := pkg.Fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				d := &directive{
					pos: pkg.Fset.Position(c.Pos()),
					end: pkg.Fset.Position(c.End()),
				}
				d.pkgScope = d.pos.Line == pkgLine || d.pos.Line == pkgLine-1
				if len(fields) > 0 {
					d.analyzer = fields[0]
					d.reason = len(fields) > 1
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// suppressing returns the first reasoned directive covering the finding
// (same line, the line above, or package scope), or nil.
func suppressing(dirs []*directive, f Finding) *directive {
	for _, d := range dirs {
		if !d.reason {
			continue
		}
		sameLine := d.pos.Filename == f.Pos.Filename && (d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1)
		if !sameLine && !d.pkgScope {
			continue
		}
		if d.analyzer == f.Analyzer || d.analyzer == "all" {
			return d
		}
	}
	return nil
}
