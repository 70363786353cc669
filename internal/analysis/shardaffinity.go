package analysis

import (
	"go/ast"
	"go/types"
)

// ShardAffinity enforces internal/fleet's ownership model: a Tenant (and
// everything hanging off it — Hub, System, scheduler) belongs to exactly
// one shard event loop and must never be reached from another goroutine.
// Four rules, scoped to the fleet, cluster and notify packages:
//
//  1. Goroutines may only be spawned by the sanctioned lifecycle points
//     (*Fleet).Start (the shard loops), (*Server).Serve (per-conn
//     handlers), and in internal/cluster (*Node).Start plus its
//     acceptLoop (the peer listener and its per-conn handlers). A `go`
//     statement anywhere else — a shard drain, a flush, a handler — is a
//     handoff the ownership model cannot see; bounded fan-out goes
//     through parrun.Map instead.
//  2. No goroutine launch may capture or receive a *Tenant.
//  3. Inside a parrun.Map worker closure, including the retry closures
//     nested in it, the only sanctioned tenant access is a direct
//     `<tenant-expr>.save(saver, fsync)` call — the checkpoint-wave
//     pattern where the loop blocks until every write returns and then
//     applies the outcomes itself. Binding a tenant to a variable, passing it elsewhere, or
//     touching any other field/method off-loop is flagged.
//  4. A *Tenant must never be sent over a channel: handing a live tenant
//     to another goroutine transfers state without transferring the
//     shard's ownership guarantees.
var ShardAffinity = &Analyzer{
	Name:       "shardaffinity",
	Doc:        "tenant/Hub/System state must only be reached from the owning shard loop",
	NeedsTypes: true,
	Run:        runShardAffinity,
}

// shardScoped is where the tenant-ownership model applies. The cluster
// package is in scope because its peer handlers sit next to the fleet's
// tenants: a stray goroutine there could reach shard state through the
// replicating backend the fleet checkpoints into. The notify package is
// in scope because its subscribers are the goroutines shard events are
// handed to, so an unsanctioned spawn inside it would widen that
// surface invisibly.
var shardScoped = []string{
	"coreda/internal/fleet", "coreda/internal/cluster",
	"coreda/internal/notify",
}

const parrunPath = "coreda/internal/parrun"

func runShardAffinity(pass *Pass) {
	if !pathInScope(pass.ImportPath, shardScoped) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sanctioned := sanctionedSpawner(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if !sanctioned {
						pass.Reportf(n.Pos(), "goroutine spawned in %s: shard state is confined to the shard loop; only the sanctioned lifecycle points (fleet start/serve, node start and accept loop) may spawn", funcTitle(fd))
					}
					reportTenantUses(pass, n.Call, nil,
						"tenant captured by a spawned goroutine: tenants are owned by their shard loop")
				case *ast.SendStmt:
					if tenantValue(pass, n.Value) {
						pass.Reportf(n.Pos(), "*Tenant sent over a channel: tenants are owned by their shard loop and must not be handed off")
					}
				case *ast.CallExpr:
					if isParrunMap(pass, n) {
						for _, arg := range n.Args {
							if fl, ok := arg.(*ast.FuncLit); ok {
								reportTenantUses(pass, fl.Body, saveReceivers(pass, fl.Body),
									"tenant reached inside a parrun.Map worker: only a direct t.save(saver, fsync) call may touch a tenant off its shard loop")
							}
						}
					}
				}
				return true
			})
		}
	}
}

// sanctionedSpawner reports whether fd is one of the lifecycle methods
// allowed to start goroutines: the fleet's shard-loop launch and
// per-conn serve, and the cluster node's peer accept loop (Start spawns
// acceptLoop, acceptLoop spawns one serveConn per peer link).
func sanctionedSpawner(fd *ast.FuncDecl) bool {
	recv := recvTypeName(fd)
	return fd.Name.Name == "Start" && recv == "Fleet" ||
		fd.Name.Name == "Serve" && recv == "Server" ||
		fd.Name.Name == "Start" && recv == "Node" ||
		fd.Name.Name == "acceptLoop" && recv == "Node"
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func funcTitle(fd *ast.FuncDecl) string {
	if recv := recvTypeName(fd); recv != "" {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// isParrunMap reports whether call is parrun.Map(...).
func isParrunMap(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Map" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == parrunPath
}

// saveReceivers collects the receiver expressions of direct
// `<tenant>.save(...)` calls in body — the one sanctioned off-loop use.
func saveReceivers(pass *Pass, body ast.Node) map[ast.Expr]bool {
	allowed := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "save" && tenantValue(pass, sel.X) {
			allowed[sel.X] = true
		}
		return true
	})
	return allowed
}

// reportTenantUses flags every tenant-typed value expression in body
// that is not an allowed node.
func reportTenantUses(pass *Pass, body ast.Node, allowed map[ast.Expr]bool, msg string) {
	ast.Inspect(body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if allowed[e] {
			return true
		}
		if tenantValue(pass, e) {
			pass.Reportf(e.Pos(), "%s", msg)
			return false
		}
		return true
	})
}

// tenantValue reports whether e is a value (not a type) of type Tenant
// or *Tenant as defined in the analyzed package.
func tenantValue(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || !tv.IsValue() {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Tenant" && obj.Pkg() != nil && obj.Pkg().Path() == pass.ImportPath
}
