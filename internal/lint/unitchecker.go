package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
)

// vetConfig is the JSON configuration cmd/go hands a -vettool for each
// compilation unit (the x/tools unitchecker wire format, reimplemented here
// from the standard library alone). Test variants arrive as their own units
// — "p3/internal/sim [p3/internal/sim.test]" — so `go vet -vettool` covers
// test files without p3lint's standalone loader having to.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit executes analyzers over the single compilation unit described by
// the vet config at cfgPath, printing findings to w in vet's plain-text
// format. It returns the number of findings. p3lint exchanges no facts, but
// cmd/go expects the vetx output file to exist, so an empty one is always
// written.
func RunUnit(cfgPath string, analyzers []*Analyzer, w io.Writer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 0, err
		}
	}
	// Only this module's packages carry p3 invariants; the dependency
	// closure cmd/go walks (the entire standard library) is skipped without
	// being parsed.
	if cfg.VetxOnly || cfg.ModulePath == "" {
		return 0, nil
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, cfg.Compiler, func(path string) string {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		return cfg.PackageFile[path]
	})
	pkg, err := check(fset, imp, types.SizesFor(cfg.Compiler, envGOARCH()), cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	diags, err := RunAnalyzers(pkg, analyzers)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return len(diags), nil
}
