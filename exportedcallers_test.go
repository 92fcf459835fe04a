package fastsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exportedTestOnly lists the exported functions and methods under
// internal/ that no non-test code calls, each with the test that needs
// it and what that test checks. Keys are package.Func or
// package.Type.Method, the package named by its directory under
// internal/.
var exportedTestOnly = map[string]string{
	"cohort.Fleet.Cohort": "host's TestServingAppAccessors checks the serving config's cohort size reaches the fleet; no Results field or probe carries it",
	"iommu.CapTable.Len":  "core's TestGoldenPolicyLedger prints the live grant count and TestCapMapGrantsUnmapRevokes and TestCapLazyRevokeWindowAndFlush check it after map, unmap and flush; no probe exposes it",
	"sim.Engine.Rand":     "TestDeterministicRand checks one seed gives one stream; NewEngine(seed) and NewShards(n, seed, la), which simbench calls, seed it, so it goes when the seed does",
}

// TestExportedHaveCallers fails on an exported-name function or method
// declared under internal/ that no non-test code outside its own body
// uses, in the module or in simbench, unless exportedTestOnly lists it
// or a call through an interface can reach it: non-test code converts a
// value with it in its method set to an interface, and that value
// implements an interface type non-test code declares or uses
// (anonymous ones included) with a method of its name. It also fails on
// a listed entry that gained such a caller or no longer exists.
func TestExportedHaveCallers(t *testing.T) {
	_, pkgs := checkedModule(t)
	type decl struct {
		key string // exportedTestOnly's form
		fn  *types.Func
	}
	var decls []decl
	used := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	boxed := map[string]types.Type{} // by types.TypeString
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				var self *types.Func
				if ok {
					self, _ = p.info.Defs[fd.Name].(*types.Func)
					if rel, ok := strings.CutPrefix(p.dir, "internal/"); ok && fd.Name.IsExported() {
						decls = append(decls, decl{rel + "." + funcName(fd), self})
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
			collectBoxed(p.info, f, boxed)
		}
		for _, tv := range p.info.Types {
			collectInterfaces(tv.Type, ifaces)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				collectInterfaces(obj.Type(), ifaces)
			}
		}
		for _, obj := range p.info.Uses {
			collectInterfaces(obj.Type(), ifaces)
		}
	}
	exists := map[string]bool{}
	var flagged []string
	for _, d := range decls {
		exists[d.key] = true
		if !used[d.fn] && !reachedThrough(d.fn, boxed, ifaces) {
			flagged = append(flagged, d.key)
		}
	}
	sort.Strings(flagged)
	unused := map[string]bool{}
	for _, key := range flagged {
		unused[key] = true
		if _, listed := exportedTestOnly[key]; !listed {
			t.Errorf("%s: no non-test code calls it: delete it, or list it in exportedTestOnly with the test that needs it", key)
		}
	}
	listed := make([]string, 0, len(exportedTestOnly))
	for key := range exportedTestOnly {
		listed = append(listed, key)
	}
	sort.Strings(listed)
	for _, key := range listed {
		switch {
		case !exists[key]:
			t.Errorf("%s: listed in exportedTestOnly, but no such function; drop the entry", key)
		case !unused[key]:
			t.Errorf("%s: non-test code calls it; drop it from exportedTestOnly", key)
		}
	}
	t.Logf("%d exported functions and methods under internal/, %d without a non-test caller", len(decls), len(flagged))
}

// collectInterfaces adds to set every interface with methods that t is,
// or that a signature, pointer, slice, array, map or channel in t holds.
func collectInterfaces(t types.Type, set map[*types.Interface]bool) {
	switch t := t.(type) {
	case *types.Named, *types.Alias:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			set[it] = true
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			set[t] = true
		}
	case *types.Signature:
		collectInterfaces(t.Params(), set)
		collectInterfaces(t.Results(), set)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			collectInterfaces(t.At(i).Type(), set)
		}
	case *types.Pointer:
		collectInterfaces(t.Elem(), set)
	case *types.Slice:
		collectInterfaces(t.Elem(), set)
	case *types.Array:
		collectInterfaces(t.Elem(), set)
	case *types.Map:
		collectInterfaces(t.Key(), set)
		collectInterfaces(t.Elem(), set)
	case *types.Chan:
		collectInterfaces(t.Elem(), set)
	}
}

// collectBoxed adds to boxed the type of every value that f converts to
// an interface type, explicitly or by assignment, argument passing,
// return, composite literal element or channel send.
func collectBoxed(info *types.Info, f *ast.File, boxed map[string]types.Type) {
	box := func(e ast.Expr, to types.Type) {
		if to == nil { // the blank identifier
			return
		}
		if _, ok := to.Underlying().(*types.Interface); !ok {
			return
		}
		t := info.TypeOf(e)
		switch t.Underlying().(type) {
		case *types.Interface, *types.Tuple:
			return
		}
		if t != types.Typ[types.UntypedNil] {
			boxed[types.TypeString(t, nil)] = t
		}
	}
	var walk func(body ast.Node, sig *types.Signature)
	walk = func(body ast.Node, sig *types.Signature) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, info.TypeOf(n).(*types.Signature))
				return false
			case *ast.CallExpr:
				tv := info.Types[n.Fun]
				if tv.IsType() {
					if len(n.Args) == 1 {
						box(n.Args[0], tv.Type)
					}
					break
				}
				fs, ok := tv.Type.Underlying().(*types.Signature)
				if !ok {
					break
				}
				params := fs.Params()
				for i, arg := range n.Args {
					switch last := params.Len() - 1; {
					case fs.Variadic() && i >= last && !n.Ellipsis.IsValid():
						box(arg, params.At(last).Type().(*types.Slice).Elem())
					case i <= last:
						box(arg, params.At(i).Type())
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						box(n.Rhs[i], info.TypeOf(lhs))
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil && len(n.Values) == len(n.Names) {
					for _, v := range n.Values {
						box(v, info.TypeOf(n.Type))
					}
				}
			case *ast.ReturnStmt:
				if sig != nil && len(n.Results) == sig.Results().Len() {
					for i, r := range n.Results {
						box(r, sig.Results().At(i).Type())
					}
				}
			case *ast.CompositeLit:
				switch t := deref(info.TypeOf(n)).Underlying().(type) {
				case *types.Struct:
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							box(kv.Value, info.TypeOf(kv.Key))
						} else {
							box(el, t.Field(i).Type())
						}
					}
				case *types.Slice, *types.Array, *types.Map:
					elem := t.(interface{ Elem() types.Type }).Elem()
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if m, ok := t.(*types.Map); ok {
								box(kv.Key, m.Key())
							}
							el = kv.Value
						}
						box(el, elem)
					}
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					box(n.Value, ch.Elem())
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			if fd.Body != nil {
				walk(fd.Body, info.Defs[fd.Name].Type().(*types.Signature))
			}
		} else {
			walk(d, nil)
		}
	}
}

// reachedThrough reports whether a call through an interface can reach
// method fn: some value boxed in an interface has fn in its method set
// and implements an interface in ifaces that has a method of fn's name.
func reachedThrough(fn *types.Func, boxed map[string]types.Type, ifaces map[*types.Interface]bool) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	// fmt calls a String method on whatever it prints, nested fields
	// included, and those values reach it as any: count it as called.
	if fn.Name() == "String" && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	for _, v := range boxed {
		m, _, _ := types.LookupFieldOrMethod(v, true, fn.Pkg(), fn.Name())
		if m, ok := m.(*types.Func); !ok || m.Origin() != fn {
			continue
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(v, it) {
					return true
				}
			}
		}
	}
	return false
}
