package fastsafe

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// mapRangeAllowed lists the non-test sites, by file and function, that
// range over a map, with how many ranges each holds and why the order
// they visit keys in cannot reach a result. Go randomises that order on
// every range, so any other site would make two runs of one seed differ.
var mapRangeAllowed = map[string]struct {
	n   int
	why string
}{
	"internal/core/mode.go:ValidModeNames":      {1, "collects the names, then sorts them"},
	"internal/core/mode.go:ParseMode":           {1, "looks up a unique name"},
	"internal/stats/registry.go:Registry.Names": {2, "collects the names, then sorts them"},
}

// TestNoMapOrderDependence type-checks every non-test package of the
// module (simbench is its own module) and fails on a range over a map at
// a site mapRangeAllowed does not list, or at a listed site whose count
// changed.
func TestNoMapOrderDependence(t *testing.T) {
	fset, pkgs := checkedModule(t)
	found := map[string]int{}
	for _, p := range pkgs {
		if p.bench {
			continue // simbench's own module; its order is its own
		}
		for _, f := range p.files {
			file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			for _, decl := range f.Decls {
				site := file + ":package-level"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					site = file + ":" + funcName(fn)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok {
						if _, isMap := p.info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
							found[site]++
						}
					}
					return true
				})
			}
		}
	}
	sites := make([]string, 0, len(found))
	for site := range found {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		if allowed, ok := mapRangeAllowed[site]; !ok || allowed.n != found[site] {
			t.Errorf("%s: %d range(s) over a map, %d allowed: visit the keys in a fixed order, or list the site in mapRangeAllowed with the reason its order cannot matter",
				site, found[site], allowed.n)
		}
	}
	for site := range mapRangeAllowed {
		if found[site] == 0 {
			t.Errorf("%s: allowed a range over a map, but has none; drop it from mapRangeAllowed", site)
		}
	}
}

// funcName names a function declaration as Type.Method or Func.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}
