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

// modulePath is the root module's import path (go.mod).
const modulePath = "fastsafe"

// checkedPackage is one non-test package of the module, or simbench,
// parsed and type-checked from source.
type checkedPackage struct {
	dir   string // relative to the module root, "." for the root package
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	// bench marks simbench: its own module, read only as a caller of
	// this one, because its workloads are the traffic the code serves.
	bench bool
}

var (
	moduleOnce sync.Once
	moduleFset *token.FileSet
	modulePkgs []checkedPackage
	moduleErr  error
)

// checkedModule type-checks every non-test package of the module, then
// simbench, once per test binary, so the lints that walk the source
// share the cost of one check.
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

// moduleChecker type-checks the module's packages under their import
// paths and serves them as its own imports, so every package sees one
// object per declaration; the standard library comes from source.
type moduleChecker struct {
	fset *token.FileSet
	std  types.ImporterFrom
	done map[string]*checkedPackage // by directory
}

func checkModule(fset *token.FileSet) ([]checkedPackage, error) {
	c := &moduleChecker{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		done: map[string]*checkedPackage{},
	}
	var pkgs []checkedPackage
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "simbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		p, err := c.check(filepath.ToSlash(dir))
		if p != nil {
			pkgs = append(pkgs, *p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	bench, err := c.check("simbench")
	if err != nil {
		return nil, err
	}
	bench.bench = true
	return append(pkgs, *bench), nil
}

func (c *moduleChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *moduleChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		dir := "."
		if rel, ok := strings.CutPrefix(path, modulePath+"/"); ok {
			dir = rel
		}
		p, err := c.check(dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("import %s: no Go files", path)
		}
		return p.pkg, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// check parses and type-checks the package in dir once; it returns nil
// for a directory without Go files.
func (c *moduleChecker) check(dir string) (*checkedPackage, error) {
	if p, ok := c.done[dir]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		c.done[dir] = nil
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	path := modulePath
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", dir, err)
	}
	p := &checkedPackage{dir: dir, pkg: pkg, files: files, info: info}
	c.done[dir] = p
	return p, nil
}
