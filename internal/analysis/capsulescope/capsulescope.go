// Package capsulescope enforces capsule closure hygiene. A capsule body
// (any function of shape func(ppm.Ctx)) executes under fault replay and
// work stealing: whatever it captures from the registering scope must be
// read-only configuration (arrays, sizes, FuncRefs). Three things break
// that contract:
//
//   - Using a ppm.Ctx other than the capsule's own parameter. A Ctx is the
//     per-execution view of one capsule on one processor; a Ctx captured
//     from an enclosing registration closure is stale by the time the
//     capsule runs.
//   - Mutating captured host state (assigning captured variables, writing
//     captured slices or maps). Host memory is invisible to the engines:
//     it is not replayed after faults, not persisted, and races across
//     workers on the native engine. Shared state must live in a ppm.Array.
//   - Calling harness-side API (Array.Load/Snapshot, Runtime.Register/Run/
//     RunOnAll/NewArray/NewBlockArray) from inside a capsule. Those
//     operations bypass the engine's cost accounting and fault injection
//     and mutate runtime structure mid-run.
//   - Letting an ephemeral slice escape. The results of Array.Slice/Gather/
//     GatherAt and Ctx.Scratch/ScratchSpans live in the worker's ephemeral
//     memory, which is rewound at the capsule's control transfer and lost on
//     a fault; one stored into captured host state or sent on a channel is
//     overwritten by the next capsule while the host still holds it.
package capsulescope

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer enforces capsule closure hygiene.
var Analyzer = &analysis.Analyzer{
	Name: "capsulescope",
	Doc: "flag capsules that capture a stale Ctx, mutate captured host " +
		"state, call harness-side API mid-run, or let an ephemeral slice " +
		"outlive the capsule",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fn := range analysis.PPMFuncs(pass) {
		if fn.Capsule {
			checkCapsule(pass, fn)
		}
	}
	return nil
}

// declaredInside reports whether obj's declaration lies within the capsule
// function node (parameters included).
func declaredInside(fn analysis.FuncInfo, obj types.Object) bool {
	return obj.Pos() != 0 && fn.Node.Pos() <= obj.Pos() && obj.Pos() < fn.Node.End()
}

func checkCapsule(pass *analysis.Pass, fn analysis.FuncInfo) {
	info := pass.TypesInfo
	eph := ephemeralLocals(info, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested literal with its own Ctx parameter is a capsule in
			// its own right (a separate PPMFuncs entry); don't double-check.
			if analysis.HasOwnCtxParam(info, n) {
				return false
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || obj == fn.Ctx {
				return true
			}
			if v, isVar := obj.(*types.Var); isVar && analysis.IsCtx(v.Type()) && !declaredInside(fn, obj) {
				pass.Reportf(n.Pos(),
					"capsule uses Ctx %q captured from an enclosing scope; a Ctx is valid "+
						"only for the single capsule execution it was passed to", n.Name)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				root := captured(pass, fn, lhs)
				if root == nil {
					continue // writes to locals are fine
				}
				if len(n.Lhs) == len(n.Rhs) {
					if src, ok := eph.source(info, n.Rhs[i]); ok {
						reportEscape(pass, lhs.Pos(), src, "stored into "+root.Name)
						continue
					}
				}
				reportMutation(pass, lhs.Pos(), root)
			}
		case *ast.SendStmt:
			if src, ok := eph.source(info, n.Value); ok {
				reportEscape(pass, n.Value.Pos(), src, "sent on a channel")
			}
		case *ast.IncDecStmt:
			checkMutation(pass, fn, n.X)
		case *ast.CallExpr:
			if name, ok := analysis.HarnessCall(info, n); ok {
				pass.Reportf(n.Pos(),
					"%s inside capsule code is harness-side API: it bypasses the engine's "+
						"cost and fault accounting (stage inputs before Run, read results after)",
					name)
			}
		}
		return true
	})
}

// checkMutation flags an assignment target rooted at a variable declared
// outside the capsule. Writes to locals are fine; writes to captured or
// package-level host state bypass persistent memory.
func checkMutation(pass *analysis.Pass, fn analysis.FuncInfo, lhs ast.Expr) {
	if root := captured(pass, fn, lhs); root != nil {
		reportMutation(pass, lhs.Pos(), root)
	}
}

func reportMutation(pass *analysis.Pass, pos token.Pos, root *ast.Ident) {
	// Reassigning a captured Array variable is as bad as any other captured
	// write, so no ppm-type exemptions here.
	pass.Reportf(pos,
		"capsule mutates %q, host state captured from outside the capsule: it is "+
			"not replayed after faults and races across workers — keep shared state "+
			"in a ppm.Array", root.Name)
}

// captured returns the base identifier of an assignment target when it is a
// variable declared outside the capsule, else nil.
func captured(pass *analysis.Pass, fn analysis.FuncInfo, lhs ast.Expr) *ast.Ident {
	root := rootIdent(lhs)
	if root == nil {
		return nil
	}
	obj, isVar := pass.TypesInfo.Uses[root].(*types.Var)
	if !isVar || declaredInside(fn, obj) {
		return nil
	}
	return root
}

func reportEscape(pass *analysis.Pass, pos token.Pos, src, how string) {
	pass.Reportf(pos,
		"%s result escapes the capsule (%s): it lives in ephemeral memory, rewound at "+
			"the capsule's control transfer and lost on a fault — copy what must survive "+
			"into a ppm.Array", src, how)
}

// ephemerals maps each capsule-local variable bound to an ephemeral slice to
// the call that produced it ("Array.Slice", "Ctx.Scratch", ...).
type ephemerals map[types.Object]string

// ephemeralLocals finds the capsule's locals that hold ephemeral slices:
// assigned from one of the producing calls, from a reslice or append-in-place
// of one, or from another such local. Iterated to a fixed point so the order
// of declarations does not matter.
func ephemeralLocals(info *types.Info, fn analysis.FuncInfo) ephemerals {
	eph := ephemerals{}
	for changed := true; changed; {
		changed = false
		bind := func(lhs, rhs ast.Expr) {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil || !declaredInside(fn, obj) || eph[obj] != "" {
				return
			}
			if src, ok := eph.source(info, rhs); ok {
				eph[obj] = src
				changed = true
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if analysis.HasOwnCtxParam(info, n) {
					return false
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						bind(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						bind(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
	return eph
}

// source reports whether e evaluates to an ephemeral slice, and which call
// produced it.
func (eph ephemerals) source(info *types.Info, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		src, ok := eph[info.Uses[e]]
		return src, ok
	case *ast.SliceExpr:
		return eph.source(info, e.X)
	case *ast.CallExpr:
		if src, ok := analysis.EphemeralCall(info, e); ok {
			return src, true
		}
		// append(x, ...) returns x's storage whenever the capacity allows.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) > 0 {
			if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" {
				return eph.source(info, e.Args[0])
			}
		}
	}
	return "", false
}

// rootIdent walks to the base identifier of an assignment target
// (x, x[i], x.f, *x, x[i].f, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		default:
			return nil
		}
	}
}
