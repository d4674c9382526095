// Package warfree statically flags write-after-read conflicts inside
// capsules: a capsule whose first access to some persistent location is a
// read and which later writes that location is not idempotent, so replaying
// it after a soft fault can observe its own partial output (Theorem 3.1 of
// the paper gives the converse — WAR-free capsules replay safely).
//
// It is the static counterpart of the dynamic checker in
// repro/internal/warcheck: the tracker verifies the schedules a run happens
// to execute, this analyzer checks every program path of every registered
// capsule at compile time. Precision trades:
//
//   - Conflicts are tracked per Array expression ("sums", "front[parity]",
//     "a.level"); two textually different expressions are assumed to be
//     different arrays. Aliasing two names to one array defeats the
//     analyzer and is left to the dynamic checker.
//   - Packed arrays (NewArray, Alloc) conflict at whole-array granularity,
//     the safe over-approximation of the model's block granularity.
//   - Block-spaced arrays (a provable NewBlockArray binding) conflict per
//     element: distinct elements occupy distinct blocks by construction, so
//     a read of sums[2*node] followed by a write of sums[node] is clean
//     while read-then-write of the same index expression is flagged.
//   - A prior write to an array shields later reads of it (reads of your
//     own output are not exposed), matching warcheck.Tracker.
//
// Helper functions taking a Ctx parameter are analyzed like capsule bodies:
// their accesses happen inside whatever capsule calls them.
package warfree

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis"
)

// Analyzer flags intra-capsule write-after-read conflicts on ppm Arrays.
var Analyzer = &analysis.Analyzer{
	Name: "warfree",
	Doc: "flag capsules that read a persistent array and later write it; " +
		"such capsules are not idempotent under fault replay (Theorem 3.1)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fn := range analysis.PPMFuncs(pass) {
		w := &walker{pass: pass, blockSpaced: map[string]bool{}}
		w.block(fn.Body.List, newState())
	}
	return nil
}

// cell tracks one array key's history along the current path.
type cell struct {
	// exposedAt maps index-expression text -> position of the first exposed
	// read. Packed arrays use the single index "" (whole array).
	exposedAt map[string]token.Pos
	// written reports a prior write on this path (shields later reads).
	written bool
}

type state map[string]*cell

func newState() state { return state{} }

func (s state) get(key string) *cell {
	c := s[key]
	if c == nil {
		c = &cell{exposedAt: map[string]token.Pos{}}
		s[key] = c
	}
	return c
}

func (s state) clone() state {
	out := newState()
	for k, c := range s {
		nc := &cell{exposedAt: map[string]token.Pos{}, written: c.written}
		for idx, pos := range c.exposedAt {
			nc.exposedAt[idx] = pos
		}
		out[k] = nc
	}
	return out
}

// merge joins two branch states: a read exposed on either path stays
// exposed; a write shields only if it happened on both paths.
func merge(a, b state) state {
	out := a.clone()
	for k, bc := range b {
		c := out.get(k)
		c.written = c.written && bc.written
		for idx, pos := range bc.exposedAt {
			if old, ok := c.exposedAt[idx]; !ok || pos < old {
				c.exposedAt[idx] = pos
			}
		}
	}
	for k, c := range out {
		if _, ok := b[k]; !ok {
			c.written = false
		}
	}
	return out
}

type walker struct {
	pass        *analysis.Pass
	blockSpaced map[string]bool // array key -> provably NewBlockArray-bound
}

func (w *walker) isBlockSpaced(a analysis.Access) bool {
	if v, ok := w.blockSpaced[a.Array]; ok {
		return v
	}
	v := analysis.BlockSpaced(w.pass, a.Obj)
	w.blockSpaced[a.Array] = v
	return v
}

func (w *walker) access(a analysis.Access, st state) {
	c := st.get(a.Array)
	idx := a.Index
	if !w.isBlockSpaced(a) {
		idx = "" // packed: whole array is one conflict unit
	}
	switch a.Kind {
	case analysis.ReadAccess:
		if !c.written {
			if _, ok := c.exposedAt[idx]; !ok {
				c.exposedAt[idx] = a.Call.Pos()
			}
		}
	case analysis.WriteAccess:
		if pos, ok := c.exposedAt[idx]; ok {
			w.pass.Reportf(a.Call.Pos(),
				"write-after-read conflict: capsule writes %s after an exposed read at line %d; "+
					"replay after a soft fault would observe the new value (Theorem 3.1) — "+
					"write to a disjoint array or split the phases with Ctx.Seq",
				a.Array, w.pass.Fset.Position(pos).Line)
		}
		c.written = true
	}
}

// expr records the accesses of e in evaluation order: a call's arguments
// are evaluated before the call itself runs, so `dst.Set(c, i, src.Get(c,
// i))` reads src before writing dst even though Set appears first in the
// source text. Function literals without their own Ctx parameter (sort.Search
// callbacks) are inlined at their definition point; literals
// with one are separate capsule bodies analyzed on their own.
func (w *walker) expr(e ast.Expr, st state) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.expr(e.Fun, st)
		for _, arg := range e.Args {
			w.expr(arg, st)
		}
		if a, ok := analysis.AccessOf(w.pass.TypesInfo, e); ok {
			w.access(a, st)
		}
	case *ast.FuncLit:
		if !analysis.HasOwnCtxParam(w.pass.TypesInfo, e) {
			w.block(e.Body.List, st)
		}
	case *ast.ParenExpr:
		w.expr(e.X, st)
	case *ast.SelectorExpr:
		w.expr(e.X, st)
	case *ast.IndexExpr:
		w.expr(e.X, st)
		w.expr(e.Index, st)
	case *ast.IndexListExpr:
		w.expr(e.X, st)
		for _, i := range e.Indices {
			w.expr(i, st)
		}
	case *ast.SliceExpr:
		w.expr(e.X, st)
		w.expr(e.Low, st)
		w.expr(e.High, st)
		w.expr(e.Max, st)
	case *ast.StarExpr:
		w.expr(e.X, st)
	case *ast.UnaryExpr:
		w.expr(e.X, st)
	case *ast.BinaryExpr:
		w.expr(e.X, st)
		w.expr(e.Y, st)
	case *ast.KeyValueExpr:
		w.expr(e.Key, st)
		w.expr(e.Value, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, st)
		}
	case *ast.TypeAssertExpr:
		w.expr(e.X, st)
	}
}

// block walks a statement list, threading st through it.
func (w *walker) block(stmts []ast.Stmt, st state) {
	for _, s := range stmts {
		w.stmt(s, st)
	}
}

func (w *walker) stmt(s ast.Stmt, st state) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, st)
		}
		for _, e := range s.Lhs {
			w.expr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, st)
					}
				}
			}
		}
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		thenSt := st.clone()
		w.block(s.Body.List, thenSt)
		elseSt := st.clone()
		w.stmt(s.Else, elseSt)
		for k, c := range merge(thenSt, elseSt) {
			st[k] = c
		}
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		w.block(s.Body.List, st)
		w.stmt(s.Post, st)
	case *ast.RangeStmt:
		w.expr(s.X, st)
		w.block(s.Body.List, st)
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		w.expr(s.Tag, st)
		w.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		w.caseClauses(s.Body, st)
	case *ast.BlockStmt:
		w.block(s.List, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, st)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.GoStmt:
		w.expr(s.Call, st)
	case *ast.DeferStmt:
		w.expr(s.Call, st)
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.SelectStmt:
		w.caseClauses(s.Body, st)
	}
}

// caseClauses analyzes the clauses of a switch or select as exclusive
// branches merged against the fallthrough (no-match) path.
func (w *walker) caseClauses(body *ast.BlockStmt, st state) {
	merged := st.clone()
	for _, cl := range body.List {
		branch := st.clone()
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.expr(e, st) // case expressions evaluate on the shared path
			}
			w.block(cl.Body, branch)
		case *ast.CommClause:
			w.stmt(cl.Comm, branch)
			w.block(cl.Body, branch)
		}
		merged = merge(merged, branch)
	}
	for k, c := range merged {
		st[k] = c
	}
}
