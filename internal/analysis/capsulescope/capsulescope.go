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
//   - Letting an ephemeral slice escape. The results of Array.Gather/
//     GatherAt and Ctx.Scratch/ScratchSpans live in the worker's ephemeral
//     memory, which is rewound at the capsule's control transfer and lost on
//     a fault, and an Array.Slice result is valid only until then too; one
//     stored into captured host state or sent on a channel is overwritten by
//     the next capsule while the host still holds it.
//   - Writing through an Array.Slice result. On the native engine it is a
//     read-only window onto persistent memory, so an index assignment, a
//     copy or clear into it, an in-place slices/sort call on it, or an
//     append onto it (or a Gather into it) stores to the array behind the
//     engine's back: uncounted, unfaulted and visible to every capsule.
//     This one is checked in every function with a ppm.Ctx parameter, the
//     helpers that edit leaf vectors included.
package capsulescope

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer enforces capsule closure hygiene.
var Analyzer = &analysis.Analyzer{
	Name: "capsulescope",
	Doc: "flag capsules that capture a stale Ctx, mutate captured host " +
		"state, call harness-side API mid-run, let an ephemeral slice " +
		"outlive the capsule, or write through an Array.Slice result",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fn := range analysis.PPMFuncs(pass) {
		if fn.Capsule {
			checkCapsule(pass, fn)
		}
		checkViewWrites(pass, fn)
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
// the call that produced it ("Array.Slice", "Ctx.Scratch", ...). The view
// locals of checkViewWrites are a map of the same kind.
type ephemerals map[types.Object]string

// ephemeralLocals finds the capsule's locals that hold ephemeral slices:
// assigned from one of the producing calls, from a reslice or append-in-place
// of one, or from another such local.
func ephemeralLocals(info *types.Info, fn analysis.FuncInfo) ephemerals {
	return bindLocals(info, fn, ephemerals.source)
}

// bindLocals finds fn's locals assigned an expression that classify gives a
// source, iterated to a fixed point so the order of declarations does not
// matter.
func bindLocals(info *types.Info, fn analysis.FuncInfo,
	classify func(ephemerals, *types.Info, ast.Expr) (string, bool)) ephemerals {
	bound := ephemerals{}
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
			if obj == nil || !declaredInside(fn, obj) || bound[obj] != "" {
				return
			}
			if src, ok := classify(bound, info, rhs); ok {
				bound[obj] = src
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
	return bound
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
		if name, ok := builtinName(info, e); ok && name == "append" && len(e.Args) > 0 {
			return eph.source(info, e.Args[0])
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

// checkViewWrites flags writes through an Array.Slice result or a sub-slice
// of one: the targets of index assignments and increments, the destination
// of copy and clear, the slice an in-place slices or sort call edits, the
// first argument of append, the dst of Gather and GatherAt (which append
// into it), and the acc of FoldAt (which it folds into). Reading a view,
// passing it to SetRange, and appending it to a fresh buffer are the
// intended uses and pass.
func checkViewWrites(pass *analysis.Pass, fn analysis.FuncInfo) {
	info := pass.TypesInfo
	views := bindLocals(info, fn, ephemerals.view)
	report := func(e ast.Expr, how string) {
		if _, ok := views.view(info, e); ok {
			pass.Reportf(e.Pos(),
				"write through an Array.Slice result (%s): on the native engine it is a "+
					"read-only view of persistent memory, so the store bypasses the engine's "+
					"accounting — copy it into c.Scratch before editing", how)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if analysis.HasOwnCtxParam(info, n) {
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					report(ix.X, "index assignment")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				report(ix.X, "index assignment")
			}
		case *ast.CallExpr:
			if len(n.Args) == 0 {
				return true
			}
			if name, ok := builtinName(info, n); ok {
				switch name {
				case "copy", "clear":
					report(n.Args[0], name+" destination")
				case "append":
					report(n.Args[0], "append onto it")
				}
			} else if name, ok := inPlaceCall(info, n); ok {
				report(n.Args[0], name)
			} else if _, name, recvType, ok := analysis.MethodCall(info, n); ok && analysis.IsArray(recvType) {
				switch {
				case (name == "Gather" || name == "GatherAt") && len(n.Args) == 3:
					report(n.Args[2], "Array."+name+" dst")
				case name == "FoldAt" && len(n.Args) == 5:
					report(n.Args[4], "Array.FoldAt acc")
				}
			}
		}
		return true
	})
}

// view reports whether e evaluates to a view — an Array.Slice call, a view
// local, a reslice of a view, or an append onto one, which may return its
// storage — and names the producing call.
func (views ephemerals) view(info *types.Info, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		src, ok := views[info.Uses[e]]
		return src, ok
	case *ast.SliceExpr:
		return views.view(info, e.X)
	case *ast.CallExpr:
		if _, name, recvType, ok := analysis.MethodCall(info, e); ok {
			return "Array.Slice", name == "Slice" && analysis.IsArray(recvType)
		}
		if name, ok := builtinName(info, e); ok && name == "append" && len(e.Args) > 0 {
			return views.view(info, e.Args[0])
		}
	}
	return "", false
}

// builtinName returns the name of the builtin call is to, if it is one.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok {
		return "", false
	}
	return b.Name(), true
}

// inPlaceCall reports calls that reorder or overwrite the slice they are
// given as their first argument: slices.Sort*, Reverse, Compact*, Delete*,
// Insert and Replace, and sort.Slice, SliceStable, Sort and Stable. It
// returns the call's qualified name.
func inPlaceCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) { // an explicit instantiation, slices.Sort[S]
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", false
	}
	name := obj.Name()
	switch obj.Pkg().Path() {
	case "slices":
		if strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "Compact") ||
			strings.HasPrefix(name, "Delete") ||
			name == "Reverse" || name == "Insert" || name == "Replace" {
			return "slices." + name, true
		}
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable":
			return "sort." + name, true
		}
	}
	return "", false
}
