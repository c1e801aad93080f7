package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Sink names one event-scheduling or queue-mutation entry point: calling it
// from inside a map iteration makes event order a function of Go's
// randomized map layout. Recv is the receiver's named type ("" for a
// package-level function); interface methods (sim.Proc, sim.Exec) match the
// interface's declared method.
type Sink struct {
	Pkg  string
	Recv string
	Name string
}

func (s Sink) String() string {
	if s.Recv == "" {
		return s.Pkg + "." + s.Name
	}
	return s.Pkg + ".(" + s.Recv + ")." + s.Name
}

// ParseSink decodes "pkg.(Recv).Method" or "pkg.Func" (the -maporder.sinks
// wire format; pkg is a full import path and may itself contain dots).
func ParseSink(spec string) (Sink, error) {
	if i := strings.Index(spec, ".("); i >= 0 {
		rest := spec[i+2:]
		j := strings.Index(rest, ").")
		if j < 0 {
			return Sink{}, fmt.Errorf("malformed sink %q (want pkg.(Recv).Method)", spec)
		}
		return Sink{Pkg: spec[:i], Recv: rest[:j], Name: rest[j+2:]}, nil
	}
	i := strings.LastIndexByte(spec, '.')
	if i < 0 {
		return Sink{}, fmt.Errorf("malformed sink %q (want pkg.Func or pkg.(Recv).Method)", spec)
	}
	return Sink{Pkg: spec[:i], Name: spec[i+1:]}, nil
}

// DefaultSinks are the repo's real scheduling entry points: the discrete
// -event engines' scheduling calls, the cross-shard send, the scheduler
// queue mutation, and netsim's message/fault injection surface.
var DefaultSinks = []Sink{
	{"p3/internal/sim", "Engine", "At"},
	{"p3/internal/sim", "Engine", "After"},
	{"p3/internal/sim", "Proc", "At"},
	{"p3/internal/sim", "Proc", "After"},
	{"p3/internal/sim", "Exec", "Cross"},
	{"p3/internal/sim", "Engine", "Cross"},
	{"p3/internal/sim", "Parallel", "Cross"},
	{"p3/internal/sched", "Queue", "Push"},
	{"p3/internal/netsim", "Network", "Send"},
	{"p3/internal/netsim", "Network", "ScheduleHostDegrade"},
	{"p3/internal/netsim", "Network", "ScheduleTierDegrade"},
	{"p3/internal/netsim", "Network", "ScheduleAggOutage"},
}

// MapOrder returns the analyzer flagging `range` statements over maps whose
// body — transitively through same-package calls — reaches one of sinks.
// This is the static form of the PR 9 tie bug: every event carries a
// canonical (scheduling time, LP, per-LP order) key stamped in scheduling
// call order, so feeding Schedule/Push/Send from a map walk makes that
// order (and with it the whole Result) a function of Go's per-process map
// seed. The fix is to iterate sorted keys; code that has a genuine reason
// to differ says so with //p3:maporder-ok <reason>.
func MapOrder(sinks []Sink) *Analyzer {
	az := &Analyzer{
		Name: "maporder",
		Doc: "forbid map iteration that (transitively) schedules events or mutates " +
			"scheduler queues: map order is randomized per process, and the engines' " +
			"canonical event keys are stamped in scheduling call order, so such a walk " +
			"perturbs the Result; iterate sorted keys instead",
	}
	az.Run = func(pass *Pass) error {
		m := &mapOrderPass{
			pass:  pass,
			sinks: sinks,
			decls: make(map[*types.Func]*ast.FuncDecl),
			memo:  make(map[*types.Func]*Sink),
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					m.decls[fn] = fd
				}
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				sink := m.bodyReaches(rs.Body)
				if sink == nil {
					return true
				}
				if d := pass.DirectiveNear(rs.Pos(), "maporder-ok"); d != nil {
					if d.Arg == "" {
						pass.Reportf(rs.Pos(), "//p3:maporder-ok needs a reason (//p3:maporder-ok <why this order is sound>)")
					}
					return true
				}
				pass.Reportf(rs.Pos(), "map iteration over %s reaches event scheduling (%s): map order is randomized per process and would perturb the canonical event order — iterate keys in sorted order", types.ExprString(rs.X), sink)
				return true
			})
		}
		return nil
	}
	return az
}

type mapOrderPass struct {
	pass  *Pass
	sinks []Sink
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]*Sink // nil entry = in progress or clean
}

// bodyReaches walks one statement body (including nested function
// literals: a closure built per map element is scheduled work whose
// creation order is the map's) and returns the first sink reachable from
// it, or nil.
func (m *mapOrderPass) bodyReaches(body ast.Node) (found *Sink) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := m.callee(call)
		if fn == nil {
			return true
		}
		if s := m.matchSink(fn); s != nil {
			found = s
			return false
		}
		if s := m.funcReaches(fn); s != nil {
			found = s
			return false
		}
		return true
	})
	return found
}

// funcReaches reports the first sink reachable from fn's body, for
// functions declared in the package under analysis (other packages are
// opaque beyond the sink list itself). Results are memoized; recursion
// terminates because an in-progress function reads as clean, which is sound
// for reachability (some finite call chain hits the sink first).
func (m *mapOrderPass) funcReaches(fn *types.Func) *Sink {
	if s, seen := m.memo[fn]; seen {
		return s
	}
	decl := m.decls[fn]
	if decl == nil {
		return nil
	}
	m.memo[fn] = nil
	s := m.bodyReaches(decl.Body)
	m.memo[fn] = s
	return s
}

// callee resolves a call expression to the called named function or method,
// or nil for indirect calls (function values, conversions, builtins).
func (m *mapOrderPass) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := m.pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := m.pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := m.pass.Info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// matchSink reports whether fn is one of the configured sinks.
func (m *mapOrderPass) matchSink(fn *types.Func) *Sink {
	if fn.Pkg() == nil {
		return nil
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	recvName := ""
	if recv := fn.Signature().Recv(); recv != nil {
		recvName = namedTypeName(recv.Type())
	}
	for i := range m.sinks {
		s := &m.sinks[i]
		if s.Pkg == pkg && s.Name == name && s.Recv == recvName {
			return s
		}
	}
	return nil
}

// namedTypeName unwraps pointers and generic instantiation to the bare
// receiver type name ("*Queue[T]" -> "Queue"; unnamed receivers -> "").
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "" // receiver of an interface method literal; matched via Uses
	}
	return ""
}
