package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly flags production code that only tests use: any func, method,
// type, var or const declared in a non-test file under internal/ or cmd/
// that no non-test file of the program references. The program is the
// whole module plus the nested module that builds against it (perfbench),
// loaded whatever the vetted patterns are, so vetting one package still
// sees every caller.
//
// A declaration counts as used when:
//
//   - a non-test file other than the declaration itself references it
//     (types.Info.Uses; a recursive call or a method's own receiver type
//     is not a reference);
//   - it is an exported method of a type the root package aliases, since
//     the root package is the public API and its callers live outside the
//     module;
//   - it is a method that lets its type satisfy an interface the program
//     uses (as a type, a parameter or a result), or error, fmt.Stringer,
//     or the Unwrap() error convention errors.Is and errors.As rely on.
//
// Deleting a finding's declaration can expose its callees, so a cleanup
// repeats until no new finding appears. Code that has a production reason
// to stay (a reader for a format the public API writes) carries
// //coreda:vet-ignore testonly <reason>; a package that is a test harness
// by design carries one such directive above its package clause.
var TestOnly = &Analyzer{
	Name:       "testonly",
	Doc:        "flag internal/ and cmd/ declarations that only test files (or nothing) reference",
	NeedsTypes: true,
	Run:        runTestOnly,
}

func runTestOnly(p *Pass) {
	if p.Program == nil || !strings.HasPrefix(p.ImportPath, "coreda/internal/") && !strings.HasPrefix(p.ImportPath, "coreda/cmd/") {
		return
	}
	idx, err := p.Program.useIndex()
	if err != nil {
		p.Reportf(p.Files[0].Package, "cannot load the whole program to judge references: %v", err)
		return
	}
	check := func(id *ast.Ident) {
		obj := p.TypesInfo.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" || id.Name == "main" && p.TypesPkg.Name() == "main" || idx.used(obj) {
			return
		}
		p.Reportf(id.Pos(), "%s has no non-test reference: delete it, move it into a _test.go file, or annotate //coreda:vet-ignore testonly <reason>", id.Name)
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(n)
						}
					}
				}
			}
		}
	}
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// useIndex is the whole-program reference set testonly judges against.
type useIndex struct {
	refs   map[types.Object]bool
	ifaces []*types.Interface
	// public holds the named types the root package aliases.
	public map[*types.TypeName]bool
}

// used reports whether obj is referenced by non-test code, or is a method
// kept alive by the public API or by an interface.
func (x *useIndex) used(obj types.Object) bool {
	if x.refs[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	if named == nil {
		return false
	}
	if fn.Exported() && x.public[named.Obj()] {
		return true
	}
	for _, iface := range x.ifaces {
		if hasMethod(iface, fn.Name()) && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			return true
		}
	}
	return false
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// namedOf returns the named type t denotes, through aliases and one
// pointer, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// buildUseIndex records every reference made by the non-test files of
// pkgs, every interface they use, and every type the root package (the
// one whose import path has no slash) aliases.
func buildUseIndex(pkgs []*Package) *useIndex {
	x := &useIndex{refs: map[types.Object]bool{}, public: map[*types.TypeName]bool{}}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			x.ifaces = append(x.ifaces, iface)
		}
	}
	// error, fmt.Stringer and Unwrap are satisfied for the standard
	// library's sake (fmt, errors.Is/As), often with no interface of the
	// program in between.
	errType := types.Universe.Lookup("error").Type()
	addIface(errType)
	str := types.Typ[types.String]
	addIface(types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", str)), false)),
	}, nil).Complete())
	addIface(types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)),
	}, nil).Complete())

	for _, pkg := range pkgs {
		if pkg.TypesInfo == nil {
			continue
		}
		info := pkg.TypesInfo
		for _, tv := range info.Types {
			if tv.Type == nil {
				continue
			}
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
		root := !strings.Contains(pkg.ImportPath, "/")
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// A method's receiver names its own type, and a
					// recursive call names the function: neither is a use.
					x.addRefs(info, d.Type, info.Defs[d.Name])
					if d.Body != nil {
						x.addRefs(info, d.Body, info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var self types.Object
						if ts, ok := spec.(*ast.TypeSpec); ok {
							self = info.Defs[ts.Name]
							if tn, ok := self.(*types.TypeName); ok && root && tn.IsAlias() {
								if named := namedOf(tn.Type()); named != nil {
									x.public[named.Obj()] = true
								}
							}
						}
						x.addRefs(info, spec, self)
					}
				}
			}
		}
	}
	return x
}

// addRefs marks every object n references, except self.
func (x *useIndex) addRefs(info *types.Info, n ast.Node, self types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && obj != self {
			x.refs[obj] = true
		}
		return true
	})
}
