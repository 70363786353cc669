package analysis

import (
	"go/ast"
	"strings"
)

// simScoped lists the simulation-facing packages in which wall-clock time
// and globally-seeded randomness are forbidden: every experiment result in
// EXPERIMENTS.md is only reproducible if these packages take time from
// sim.Scheduler and randomness from seeded *rand.Rand streams (sim.RNG).
//
// internal/rtbridge (the node client over real sockets), internal/chaosnet
// (faulty wrappers around real net.Conns — "chaosnet" is not a subpackage
// of "chaos", so the prefix match below leaves it out) and cmd/ (operator
// binaries) legitimately touch the wall clock and are allowlisted by
// omission.
//
// internal/fleet IS scoped: tenant admission, eviction and checkpointing
// must be driven by tenant-virtual time or the shard-count parity gate
// breaks. Its serving layer (serve.go) is the one sanctioned wall-to-
// virtual boundary and marks each wall-clock line with a vet-ignore
// directive, so any new undirected use of the wall clock in the package
// is an error.
//
// internal/notify is scoped: the bus must stay a passive fabric — a
// wall-clock read or global rand draw there would leak scheduling noise
// into every digest the fleet gates on.
var simScoped = []string{
	"coreda/internal/core",
	"coreda/internal/sim",
	"coreda/internal/sensornet",
	"coreda/internal/signalgen",
	"coreda/internal/chaos",
	"coreda/internal/experiments",
	"coreda/internal/persona",
	"coreda/internal/baseline",
	"coreda/internal/fleet",
	"coreda/internal/notify",
}

// wallClockFuncs are the time package entry points that read or depend on
// the wall clock. Types and pure conversions (time.Duration,
// time.ParseDuration, ...) stay legal.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// allowedRandNames are the math/rand selectors that do not draw from the
// global source: constructors of explicitly seeded generators, and type
// names (*rand.Rand in signatures is exactly how seeded randomness is
// plumbed).
var allowedRandNames = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true,
	"Source":    true,
	"Source64":  true,
	"Zipf":      true,
}

// Nondeterminism flags wall-clock time, global-source randomness and
// sync.Pool buffer reuse in simulation-facing packages.
//
// sync.Pool is in the forbidden set because which pooled object a Get
// returns depends on GC timing and goroutine scheduling: harmless for
// write-through byte buffers that every use fully overwrites (the
// serving-layer pattern in internal/wire), but a reproducibility hazard
// anywhere an experiment result could observe the reused object.
// DESIGN.md §12 records the policy: pooling is sanctioned only in the
// serving layer (wire, rtbridge, fleet's serving path) and any use
// inside a scoped package must carry a vet-ignore directive arguing why
// reuse cannot be observed.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid time.Now/Sleep/..., global rand.* and sync.Pool in simulation-facing packages",
	Run:  runNondeterminism,
}

func runNondeterminism(p *Pass) {
	if !pathInScope(p.ImportPath, simScoped) {
		return
	}
	for _, f := range p.Files {
		timeName, timeImported := importName(f, "time")
		syncName, syncImported := importName(f, "sync")
		randName, randImported := importName(f, "math/rand")
		if !randImported {
			randName, randImported = importName(f, "math/rand/v2")
		}
		if !timeImported && !randImported && !syncImported {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			// ident.Obj != nil means a locally declared name shadows
			// the package; only bare package references qualify.
			if !ok || ident.Obj != nil {
				return true
			}
			switch {
			case timeImported && ident.Name == timeName && wallClockFuncs[sel.Sel.Name]:
				p.Reportf(sel.Pos(), "time.%s reads the wall clock: simulation code must take time from sim.Scheduler", sel.Sel.Name)
			case randImported && ident.Name == randName && !allowedRandNames[sel.Sel.Name]:
				p.Reportf(sel.Pos(), "global rand.%s: all randomness must flow through a seeded *rand.Rand (use sim.RNG)", sel.Sel.Name)
			case syncImported && ident.Name == syncName && sel.Sel.Name == "Pool":
				p.Reportf(sel.Pos(), "sync.Pool reuse depends on GC timing: pooling is sanctioned only in the serving layer (DESIGN.md §12)")
			}
			return true
		})
	}
}

// pathInScope reports whether importPath is one of the scoped packages or
// a subpackage of one.
func pathInScope(importPath string, scope []string) bool {
	for _, s := range scope {
		if importPath == s || strings.HasPrefix(importPath, s+"/") {
			return true
		}
	}
	return false
}

// importName returns the name by which path is referred to in f ("rand"
// for `import "math/rand"`, the alias for renamed imports) and whether
// the file imports it at all. Blank and dot imports return false: neither
// produces selector expressions.
func importName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name == nil {
			name := path
			if i := strings.LastIndex(name, "/"); i >= 0 {
				name = name[i+1:]
			}
			if name == "v2" {
				name = "rand"
			}
			return name, true
		}
		if imp.Name.Name == "_" || imp.Name.Name == "." {
			return "", false
		}
		return imp.Name.Name, true
	}
	return "", false
}
