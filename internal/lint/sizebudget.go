package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// SizeBudget returns the analyzer enforcing //p3:sizebudget <bytes>
// directives on struct declarations: the declared size must match the
// type's size under the gc sizes model exactly. The budgets guard measured
// cliffs, not vague intent — sim's event struct is held at 32 bytes because
// one more word pushes heap copies off the register-move path and triples
// per-event cost, and sched.Item at 24 bytes because it sits in every queue
// entry next to the stored order key, and a 64-byte entry (Item at 32)
// measured up to +10.5% allocation per pass — so a mismatch in either
// direction fails: growth is the regression itself, shrinkage means the
// budget (and the comment justifying it) is stale and must be re-measured.
//
// Budgets are stated for 64-bit gc targets; on a 32-bit target the analyzer
// is silent rather than wrong.
func SizeBudget() *Analyzer {
	az := &Analyzer{
		Name: "sizebudget",
		Doc: "enforce //p3:sizebudget <bytes> on struct declarations via the " +
			"types.Sizes model, so hot-struct growth fails go vet instead of a " +
			"benchmark gate several PRs later",
	}
	az.Run = func(pass *Pass) error {
		if pass.Sizes == nil || pass.Sizes.Sizeof(types.Typ[types.UnsafePointer]) != 8 {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					d := typeSpecDirective(pass, gd, ts, "sizebudget")
					if d == nil {
						continue
					}
					checkBudget(pass, ts, d)
				}
			}
		}
		return nil
	}
	return az
}

// typeSpecDirective finds a //p3:<name> directive attached to a type
// declaration: in the TypeSpec's doc comment, the enclosing GenDecl's doc
// comment (the usual place for a single-type declaration), or the line
// comment trailing the spec.
func typeSpecDirective(pass *Pass, gd *ast.GenDecl, ts *ast.TypeSpec, name string) *Directive {
	for _, cg := range [...]*ast.CommentGroup{ts.Doc, gd.Doc, ts.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d, ok := ParseDirective(c.Text, pass.Fset.Position(c.Pos())); ok && d.Name == name {
				return &d
			}
		}
	}
	return nil
}

func checkBudget(pass *Pass, ts *ast.TypeSpec, d *Directive) {
	budget, err := strconv.ParseInt(d.Arg, 10, 64)
	if err != nil || budget <= 0 {
		pass.Reportf(ts.Pos(), "//p3:sizebudget %q: want a positive byte count", d.Arg)
		return
	}
	obj, ok := pass.Info.Defs[ts.Name]
	if !ok {
		return
	}
	t := obj.Type()
	if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
		pass.Reportf(ts.Pos(), "//p3:sizebudget on non-struct type %s (budgets bound struct layout)", ts.Name.Name)
		return
	}
	size := pass.Sizes.Sizeof(t)
	if size != budget {
		pass.Reportf(ts.Pos(), "struct %s is %d bytes, declared //p3:sizebudget %d: re-measure before changing this layout (the budget pins a measured cliff — see the declaration's comment)", ts.Name.Name, size, budget)
	}
}
