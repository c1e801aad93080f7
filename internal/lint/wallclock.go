package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CriticalPackages are the determinism-critical import paths: everything a
// simulation Result is a pure function of. Inside them the wall clock and
// ambient randomness are banned outright — even the //p3:wallclock-ok
// escape hatch is rejected, because one unseeded read anywhere in these
// packages breaks the N-shard == 1-shard bit-identity contract that PRs 6-9
// pinned (see doc.go).
var CriticalPackages = []string{
	"p3/internal/sim",
	"p3/internal/netsim",
	"p3/internal/cluster",
	"p3/internal/faults",
	"p3/internal/ring",
	"p3/internal/worker",
	"p3/internal/sched",
	"p3/internal/pq",
	"p3/internal/trace",
}

// wallclockForbidden lists the banned package-level functions per package.
// A nil set means "every package-level function except the constructors in
// wallclockAllowed" (the math/rand rule: explicitly seeded generators are
// fine, the shared global source is not).
var wallclockForbidden = map[string]map[string]bool{
	"time": {
		"Now":       true,
		"Since":     true,
		"Until":     true,
		"After":     true,
		"Tick":      true,
		"NewTimer":  true,
		"NewTicker": true,
		"AfterFunc": true,
		"Sleep":     true,
	},
	"math/rand":    nil,
	"math/rand/v2": nil,
}

// wallclockAllowed are the math/rand[/v2] package-level functions that do
// not touch the global (runtime-seeded) source: constructors a caller seeds
// explicitly.
var wallclockAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

// Wallclock returns the analyzer forbidding wall-clock reads and
// global-source randomness, with critical treated as the no-exceptions
// package list.
func Wallclock(critical []string) *Analyzer {
	criticalSet := make(map[string]bool, len(critical))
	for _, p := range critical {
		criticalSet[p] = true
	}
	az := &Analyzer{
		Name: "wallclock",
		Doc: "forbid time.Now/Since/timers and global math/rand in simulation code: " +
			"a Result must be a pure function of its inputs, so real time and " +
			"runtime-seeded randomness may appear only behind a //p3:wallclock-ok " +
			"directive, and never in the determinism-critical packages",
	}
	az.Run = func(pass *Pass) error {
		isCritical := criticalSet[pass.Pkg.Path()]
		for _, f := range pass.Files {
			if pass.IsTestFile(f.Pos()) {
				// Tests measure wall time legitimately (speedup pins,
				// deadline tests); the determinism contract binds the
				// simulation, not its measurement harness.
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if fn.Signature().Recv() != nil {
					return true // methods (e.g. on a seeded *rand.Rand) are fine
				}
				pkgPath := fn.Pkg().Path()
				forbidden, watched := wallclockForbidden[pkgPath]
				if !watched {
					return true
				}
				if forbidden != nil {
					if !forbidden[fn.Name()] {
						return true
					}
				} else if wallclockAllowed[fn.Name()] {
					return true
				}
				use := pkgName(pkgPath) + "." + fn.Name()
				if d := pass.DirectiveNear(sel.Pos(), "wallclock-ok"); d != nil {
					switch {
					case isCritical:
						pass.Reportf(sel.Pos(), "%s in determinism-critical package %s: //p3:wallclock-ok is not honored here (a Result must be a pure function of its inputs)", use, pass.Pkg.Path())
					case d.Arg == "":
						pass.Reportf(sel.Pos(), "//p3:wallclock-ok needs a reason (//p3:wallclock-ok <why this wall-clock use is sound>)")
					}
					return true
				}
				if isCritical {
					pass.Reportf(sel.Pos(), "%s in determinism-critical package %s: simulation time comes from the engine, randomness from a seeded generator", use, pass.Pkg.Path())
				} else {
					pass.Reportf(sel.Pos(), "%s reads wall-clock state; annotate //p3:wallclock-ok <reason> if this site is genuinely about real time", use)
				}
				return true
			})
		}
		return nil
	}
	return az
}

// pkgName renders the conventional package qualifier of an import path
// ("math/rand/v2" -> "rand").
func pkgName(path string) string {
	name := path[strings.LastIndexByte(path, '/')+1:]
	if name == "v2" {
		name = path[:strings.LastIndexByte(path, '/')]
		name = name[strings.LastIndexByte(name, '/')+1:]
	}
	return name
}
