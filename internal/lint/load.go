package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string // absolute paths, build-constraint filtered, no tests
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Sizes      types.Sizes
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load lists, parses and type-checks the packages matching patterns,
// resolved relative to dir. Dependencies are imported from compiled export
// data (`go list -export`), so only the target packages themselves are
// parsed — the same architecture go vet uses, built from the standard
// library alone. Test files are not loaded; the `go vet -vettool` path
// covers test variants (cmd/go hands each test package to the tool as its
// own compilation unit).
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	listed, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*listPkg
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, "gc", func(path string) string { return exports[path] })
	sizes := types.SizesFor("gc", envGOARCH())

	var out []*Package
	for _, p := range targets {
		pkg, err := check(fset, imp, sizes, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// exportImporter imports each dependency from the compiled export data
// file that file names for its import path ("" when there is none).
func exportImporter(fset *token.FileSet, compiler string, file func(path string) string) types.Importer {
	return importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		name := file(path)
		if name == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(name)
	})
}

// check parses files (relative names resolve against dir) and type-checks
// them as the package path, importing dependencies through imp. It is the
// one parse-and-check path of both the standalone loader and the vet
// unit.
func check(fset *token.FileSet, imp types.Importer, sizes types.Sizes, path, dir string, files []string) (*Package, error) {
	pkg := &Package{ImportPath: path, Dir: dir, Fset: fset, Sizes: sizes, Info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.GoFiles = append(pkg.GoFiles, name)
	}
	conf := types.Config{Importer: imp, Sizes: sizes}
	var err error
	if pkg.Types, err = conf.Check(path, fset, pkg.Files, pkg.Info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg, nil
}

func envGOARCH() string {
	if arch := os.Getenv("GOARCH"); arch != "" {
		return arch
	}
	return runtime.GOARCH
}
