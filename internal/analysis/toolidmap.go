package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ToolIDMap flags range loops over map[adl.ToolID]/map[adl.StepID] whose
// body has order-sensitive effects. Go randomizes map iteration order, so
// appending, emitting output, returning errors or scheduling work from
// such a loop makes runs irreproducible — the exact failure mode the
// deterministic sim kernel exists to prevent. Iterate over sorted keys
// (adl.SortedToolIDs) instead.
var ToolIDMap = &Analyzer{
	Name:       "toolidmap",
	Doc:        "forbid order-sensitive iteration over tool/step keyed maps",
	NeedsTypes: true,
	Run:        runToolIDMap,
}

// orderedKeyTypes are the map key types whose iteration order must not
// leak into observable behaviour.
var orderedKeyTypes = map[string]bool{"ToolID": true, "StepID": true}

// emitMethodPrefixes match methods that write output or accumulate
// ordered state when called from a loop body.
var emitMethodPrefixes = []string{"Print", "Fprint", "Write", "Render", "Emit", "Log"}

// emitMethodNames match scheduling and side-effecting methods whose call
// order is observable (sim.Scheduler assigns FIFO sequence numbers, node
// Start order shapes the event timeline).
var emitMethodNames = map[string]bool{"Start": true, "Schedule": true, "After": true, "Every": true, "At": true, "Dial": true, "DialNode": true}

func runToolIDMap(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			keyName, ok := adlKeyedMap(p.TypesInfo, rng.X)
			if !ok {
				return true
			}
			if effect, pos, found := orderSensitiveEffect(rng.Body); found {
				p.Reportf(pos, "iterating map[adl.%s] in randomized order with order-sensitive effect (%s): range over sorted keys instead", keyName, effect)
			}
			return true
		})
	}
}

// adlKeyedMap reports whether expr is a map keyed by adl.ToolID or
// adl.StepID, returning the key type name.
func adlKeyedMap(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return "", false
	}
	m, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return "", false
	}
	named, ok := m.Key().(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "adl" || !orderedKeyTypes[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

// orderSensitiveEffect scans a loop body for effects whose outcome
// depends on iteration order: growing a slice, sending on a channel,
// returning a computed value (e.g. the first matching error) or calling
// an emitting/scheduling method.
func orderSensitiveEffect(body *ast.BlockStmt) (effect string, pos token.Pos, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect, pos, found = "channel send", n.Pos(), true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if containsCall(res) {
					effect, pos, found = "early return of a computed value", n.Pos(), true
					break
				}
			}
		case *ast.CallExpr:
			switch fn := n.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "append" {
					effect, pos, found = "append", n.Pos(), true
				}
			case *ast.SelectorExpr:
				name := fn.Sel.Name
				if emitMethodNames[name] {
					effect, pos, found = name+" call", n.Pos(), true
					break
				}
				for _, prefix := range emitMethodPrefixes {
					if strings.HasPrefix(name, prefix) {
						effect, pos, found = name+" call", n.Pos(), true
						break
					}
				}
			}
		}
		return !found
	})
	return effect, pos, found
}

// containsCall reports whether the expression contains any function call.
func containsCall(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
