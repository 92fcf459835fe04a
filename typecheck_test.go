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
	"strings"
	"sync"
	"testing"
)

// checkedPackage is one non-test package of the module, parsed and
// type-checked from source.
type checkedPackage struct {
	dir   string // relative to the module root, "." for the root package
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

var (
	moduleOnce sync.Once
	moduleFset *token.FileSet
	modulePkgs []checkedPackage
	moduleErr  error
)

// checkedModule type-checks every non-test package of the module
// (simbench is its own module) once per test binary, so the lints that
// walk the source share the cost of one check.
func checkedModule(t *testing.T) (*token.FileSet, []checkedPackage) {
	t.Helper()
	moduleOnce.Do(func() {
		moduleFset = token.NewFileSet()
		modulePkgs, moduleErr = checkModule(moduleFset)
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleFset, modulePkgs
}

func checkModule(fset *token.FileSet) ([]checkedPackage, error) {
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []checkedPackage
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "simbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(dir, fset, files, info)
		if err != nil {
			return fmt.Errorf("type-check %s: %w", dir, err)
		}
		pkgs = append(pkgs, checkedPackage{dir: filepath.ToSlash(dir), pkg: pkg, files: files, info: info})
		return nil
	})
	return pkgs, err
}
