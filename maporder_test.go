package fastsafe

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
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
	"internal/core/mode.go:ValidModeNames":           {1, "collects the names, then sorts them"},
	"internal/core/mode.go:ParseMode":                {1, "looks up a unique name"},
	"internal/stats/histogram.go:Histogram.Quantile": {1, "collects the keys, then sorts them"},
	"internal/stats/registry.go:Registry.Adopt":      {3, "copies into maps; a name collision is a bug and panics"},
	"internal/stats/registry.go:Registry.Names":      {3, "collects the names, then sorts them"},
	"internal/stats/registry.go:Registry.Snapshot":   {2, "copies into a map"},
}

// TestNoMapOrderDependence type-checks every non-test package of the
// module (simbench is its own module) and fails on a range over a map at
// a site mapRangeAllowed does not list, or at a listed site whose count
// changed.
func TestNoMapOrderDependence(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	found := map[string]int{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "simbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		var files []*ast.File
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			return fmt.Errorf("type-check %s: %w", dir, err)
		}
		for _, f := range files {
			file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			for _, decl := range f.Decls {
				site := file + ":package-level"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					site = file + ":" + funcName(fn)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok {
						if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
							found[site]++
						}
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
