// Package floatorder flags floating-point accumulation whose
// iteration order is nondeterministic.
//
// IEEE-754 addition is not associative: (a+b)+c != a+(b+c) in the
// last ulp, so a float sum folded in map-iteration order or raced
// across goroutines can differ between byte-identical runs even when
// every addend is identical. The simulator's run-to-run byte identity
// (SIMMPI.md) only holds if no reduction reorders. Two shapes are
// flagged:
// float compound assignment to an outer variable inside a map range,
// and the same inside a `go func(){…}()` capturing a shared sum.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"montblanc/tools/detlint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "floatorder",
	Doc: "flag float accumulation in nondeterministic order " +
		"(inside map ranges, or shared across goroutines)",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			s, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range s.Lhs {
				if !isFloatAccum(info, s, i, lhs) {
					continue
				}
				base := analysis.BaseIdent(lhs)
				if base == nil {
					continue
				}
				if mr := enclosingMapRange(info, stack, base); mr != nil {
					pass.Reportf(s.Pos(),
						"floating-point accumulation into %s inside range over map %s: "+
							"FP addition is not associative, so the sum depends on iteration order; "+
							"accumulate over sorted keys or add //detlint:allow floatorder -- <reason>",
						base.Name, types.ExprString(mr.X))
					continue
				}
				if enclosingGoroutineShared(info, stack, base) {
					pass.Reportf(s.Pos(),
						"floating-point accumulation into shared %s inside a goroutine: "+
							"completion order reorders the sum; reduce per-worker partials "+
							"deterministically or add //detlint:allow floatorder -- <reason>",
						base.Name)
				}
			}
			return true
		})
	}
	return nil, nil
}

// isFloatAccum reports whether the i'th assignment target is a float
// or complex accumulation (x op= e, or x = x + e).
func isFloatAccum(info *types.Info, s *ast.AssignStmt, i int, lhs ast.Expr) bool {
	t := info.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
		return false
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		if i >= len(s.Rhs) {
			return false
		}
		rhs := ast.Unparen(s.Rhs[i])
		if _, isBin := rhs.(*ast.BinaryExpr); !isBin {
			return false
		}
		want := types.ExprString(lhs)
		found := false
		ast.Inspect(rhs, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
				found = true
				return false
			}
			return true
		})
		return found
	}
	return false
}

// enclosingMapRange returns the innermost map-range statement whose
// body contains the accumulation, provided the target is declared
// outside that loop (a sum crossing iterations). Walking outward
// stops at function-literal boundaries only for the goroutine check,
// not here: a closure inside a map range still runs in map order.
func enclosingMapRange(info *types.Info, stack []ast.Node, base *ast.Ident) *ast.RangeStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		rs, ok := stack[i].(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		if analysis.DeclaredOutside(info, base, rs.Pos(), rs.End()) {
			return rs
		}
	}
	return nil
}

// enclosingGoroutineShared reports whether the accumulation sits
// inside a func literal launched by a go statement (directly, or as
// an argument to the launched call) while the target is declared
// outside that literal — the classic raced shared sum.
func enclosingGoroutineShared(info *types.Info, stack []ast.Node, base *ast.Ident) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		fl, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		if !analysis.DeclaredOutside(info, base, fl.Pos(), fl.End()) {
			return false // sum local to the goroutine: fine
		}
		for j := i - 1; j >= 0; j-- {
			switch stack[j].(type) {
			case *ast.GoStmt:
				return true
			case *ast.CallExpr:
				continue // e.g. go wg.Go-style wrappers: keep looking up
			default:
				j = -1
			}
		}
		return false
	}
	return false
}
