package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHeld flags mutexes held across blocking operations on the serve
// and checkpoint paths (internal/fleet, internal/rtbridge,
// internal/store, internal/cluster): I/O calls, channel operations, selects, and calls
// into the store/wire writers. A lock
// held across a socket write couples every goroutine contending for it
// to the slowest peer's TCP window — the serve-path latency and deadlock
// class PR 4's supervision exists to survive, cheaper to reject here.
//
// The walk is per function: `mu.Lock()` (and `RLock`) enters a held
// region, `mu.Unlock()` leaves it, and `defer mu.Unlock()` holds to the
// end of the function — the `defer` + blocking-call pattern the analyzer
// exists to catch. Blocking callees are recognized by package path and
// name (net/os/bufio/io reads+writes, time.Sleep, sync.Wait, wire
// Flush/WritePacket/ReadFrame, all of store, parrun.Map) plus
// a same-package closure: any function in the analyzed package whose
// body transitively contains a blocking operation is itself blocking, so
// wrapping the socket write in a helper does not evade the check.
// Function literals are analyzed as their own functions (they run on
// their own lock state), and deferred calls other than Unlock are not
// checked.
//
// Intentional holds — e.g. a write mutex that exists precisely to
// serialize whole frames onto a socket — are documented with
// //coreda:vet-ignore lockheld <reason>.
var LockHeld = &Analyzer{
	Name:       "lockheld",
	Doc:        "no mutex held across blocking I/O, channel ops, or store/wire writer calls on serve paths",
	NeedsTypes: true,
	Run:        runLockHeld,
}

// lockScoped is where serve-path lock discipline applies. The store is
// in scope because its backends sit directly on the fleet's checkpoint
// hot path: a backend mutex held across a file syscall would serialize
// every shard's eviction writebacks behind the disk. The cluster
// package is in scope because its peer links carry replication fan-out:
// a node mutex held across a peer socket write would couple every
// household's flush to the slowest replica's TCP window (peer-conn
// exclusivity uses a capacity-1 channel checkout instead). The queue
// and notify packages are in scope because every shard loop and Sync
// barrier runs through them: a queue mutex held across a channel
// handoff or a bus mutex held across anything blocking would stall the
// entire control plane (the bus's Publish holds its mutex only across
// non-blocking try-sends, the one sanctioned select-with-default
// shape).
var lockScoped = []string{
	"coreda/internal/fleet", "coreda/internal/rtbridge",
	"coreda/internal/store", "coreda/internal/cluster",
	"coreda/internal/queue", "coreda/internal/notify",
}

// lockBlockingNames maps package path → function/method names treated as
// blocking. Deadline setters and Close are deliberately absent: they are
// control-plane calls, not data-plane I/O.
var lockBlockingNames = map[string]map[string]bool{
	"net":   set("Read", "Write", "ReadFrom", "WriteTo", "Accept", "Dial", "DialTimeout", "Listen"),
	"os":    set("Read", "Write", "WriteString", "Sync", "ReadFile", "WriteFile", "Open", "OpenFile", "Create", "Remove", "Rename", "MkdirAll"),
	"bufio": set("Read", "Write", "Flush", "ReadString", "ReadBytes", "WriteString"),
	"io":    set("Copy", "ReadAll", "ReadFull", "WriteString"),
	"time":  set("Sleep"),
	"sync":  set("Wait"),

	"coreda/internal/wire":   set("Flush", "WritePacket", "ReadFrame"),
	"coreda/internal/parrun": set("Map"),
	// Drain blocks until every control job and Done callback has run —
	// a synchronization point, never to be reached with a mutex held.
	"coreda/internal/queue": set("Drain"),
}

// lockBlockingPkgs are packages whose entire API is blocking (checkpoint
// file I/O).
var lockBlockingPkgs = []string{"coreda/internal/store"}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func runLockHeld(pass *Pass) {
	if !pathInScope(pass.ImportPath, lockScoped) {
		return
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	// Fixpoint: a package function containing any blocking operation —
	// directly or through another package function — is itself blocking.
	blocking := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for obj, fd := range decls {
			if blocking[obj] {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if blockingDesc(pass, n, blocking) != "" {
					found = true
					return false
				}
				return true
			})
			if found {
				blocking[obj] = true
				changed = true
			}
		}
	}

	for _, fd := range decls {
		w := &lockWalker{pass: pass, blocking: blocking, held: map[string]bool{}}
		w.stmt(fd.Body)
		// Function literals run on their own lock state.
		for i := 0; i < len(w.lits); i++ {
			inner := &lockWalker{pass: pass, blocking: blocking, held: map[string]bool{}}
			inner.stmt(w.lits[i].Body)
			w.lits = append(w.lits, inner.lits...)
		}
	}
}

// lockWalker tracks the set of held mutexes through one function body in
// statement order.
type lockWalker struct {
	pass     *Pass
	blocking map[*types.Func]bool
	held     map[string]bool
	lits     []*ast.FuncLit
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, ok := w.lockCall(call, "Lock", "RLock"); ok {
				w.held[name] = true
				return
			}
			if name, ok := w.lockCall(call, "Unlock", "RUnlock"); ok {
				delete(w.held, name)
				return
			}
		}
		w.expr(s.X)
	case *ast.DeferStmt:
		if _, ok := w.lockCall(s.Call, "Unlock", "RUnlock"); ok {
			return // deferred unlock: the lock stays held to function end
		}
		w.collectLits(s.Call)
	case *ast.GoStmt:
		// The spawned call runs lock-free on its own goroutine; only the
		// literal (if any) needs its own walk.
		w.collectLits(s.Call)
	case *ast.SendStmt:
		w.report(s.Pos(), "channel send")
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.SelectStmt:
		// A select with a default clause never blocks: it is the
		// sanctioned try-receive/try-send shape (e.g. draining a stale
		// verdict under the write mutex).
		if !hasDefaultClause(s) {
			w.report(s.Pos(), "select")
		}
		w.stmt(s.Body)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		if tv, ok := w.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.report(s.Pos(), "range over channel")
			}
		}
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.CommClause:
		// s.Comm is part of the select, which was already reported as one
		// blocking point; only the clause body runs afterwards.
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	}
}

// expr scans one expression for blocking operations under the current
// held set, collecting function literals for independent walks.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
			return false
		}
		if desc := blockingDesc(w.pass, n, w.blocking); desc != "" {
			w.report(n.Pos(), desc)
		}
		return true
	})
}

func (w *lockWalker) collectLits(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
			return false
		}
		return true
	})
}

func (w *lockWalker) report(pos token.Pos, desc string) {
	if len(w.held) == 0 {
		return
	}
	names := make([]string, 0, len(w.held))
	for n := range w.held {
		names = append(names, n)
	}
	sort.Strings(names)
	w.pass.Reportf(pos, "%s held across %s; release the lock before blocking", strings.Join(names, ", "), desc)
}

// lockCall reports whether call is `<mutex>.<name>()` for a sync.Mutex
// or sync.RWMutex receiver, returning the rendered receiver expression.
func (w *lockWalker) lockCall(call *ast.CallExpr, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return "", false
	}
	tv, ok := w.pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" ||
		(obj.Name() != "Mutex" && obj.Name() != "RWMutex") {
		return "", false
	}
	return exprString(sel.X), true
}

// blockingDesc classifies one node as a blocking operation, returning a
// human description or "". Channel statements (send/select/range) are
// handled by the statement walk; this covers receives and calls.
func blockingDesc(pass *Pass, n ast.Node, blocking map[*types.Func]bool) string {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		if hasDefaultClause(n) {
			return ""
		}
		return "select"
	case *ast.CallExpr:
		fn := calleeFunc(pass, n)
		if fn == nil || fn.Pkg() == nil {
			return ""
		}
		path, name := fn.Pkg().Path(), fn.Name()
		if names, ok := lockBlockingNames[path]; ok && names[name] {
			return fmt.Sprintf("blocking call %s.%s", pkgBase(path), name)
		}
		for _, p := range lockBlockingPkgs {
			// Within a blanket-blocking package itself, the same-package
			// fixpoint decides which functions actually block — treating
			// every internal helper call as I/O would flag pure code.
			if path == p && path != pass.ImportPath {
				return fmt.Sprintf("blocking call %s.%s", pkgBase(path), name)
			}
		}
		if blocking[fn] {
			return fmt.Sprintf("call to %s, which blocks", name)
		}
	}
	return ""
}

// hasDefaultClause reports whether a select carries a default case —
// the non-blocking try shape.
func hasDefaultClause(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's target to a *types.Func (method, package
// function, or imported function); nil for func values and builtins.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// exprString renders simple receiver expressions ("nc.wm", "s.mu") for
// report messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "mutex"
}
