package analysis

// This file is the analyzers' shared model of the ppm surface: how to
// recognize Ctx and Array values, which methods read or write persistent
// memory, which ones are control transfers, and which functions are capsule
// bodies. Everything keys on types (package path + type name), not on
// syntax, so renamed imports and helper wrappers resolve correctly.

import (
	"go/ast"
	"go/types"
	"strings"
)

// isPPMPackage reports whether pkg is the public ppm package. Matching by
// path suffix lets analysistest fixtures provide a stub under
// testdata/src/repro/ppm without hard-coding this module's name.
func isPPMPackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == "ppm" || strings.HasSuffix(p, "/ppm")
}

func isPPMNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && isPPMPackage(obj.Pkg())
}

// IsCtx reports whether t is ppm.Ctx (possibly behind a pointer).
func IsCtx(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return isPPMNamed(t, "Ctx")
}

// IsArray reports whether t is ppm.Array.
func IsArray(t types.Type) bool { return t != nil && isPPMNamed(t, "Array") }

// isRuntimePtr reports whether t is *ppm.Runtime.
func isRuntimePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isPPMNamed(p.Elem(), "Runtime")
}

// FuncInfo is one function the analyzers examine: a declaration or literal
// with a ppm.Ctx parameter.
type FuncInfo struct {
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
	// Body is the function body (never nil).
	Body *ast.BlockStmt
	// Ctx is the first ppm.Ctx parameter's object (never nil).
	Ctx types.Object
	// Capsule reports the strict capsule shape — exactly one parameter, of
	// type ppm.Ctx, and no results, i.e. a ppm.Func body. Functions with
	// extra parameters or results are helpers that run inside capsules:
	// their persistent accesses still matter, but the control-transfer
	// contract (joinleak) and the capsule-hygiene rules (capsulescope)
	// apply only to capsule bodies proper.
	Capsule bool
	// Name labels the function in diagnostics: the declared name, or
	// "function literal" for an anonymous capsule.
	Name string
}

// PPMFuncs returns every function declaration and literal in the package
// with at least one ppm.Ctx parameter, outermost first. Methods ON Ctx
// itself (the engine seam) are excluded: a receiver is not a parameter.
func PPMFuncs(pass *Pass) []FuncInfo {
	var out []FuncInfo
	add := func(node ast.Node, ftype *ast.FuncType, body *ast.BlockStmt, name string) {
		if body == nil || ftype.Params == nil {
			return
		}
		var ctxObj types.Object
		nParams := 0
		for _, field := range ftype.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			nParams += n
			for _, id := range field.Names {
				if obj := pass.TypesInfo.Defs[id]; obj != nil && ctxObj == nil && IsCtx(obj.Type()) {
					ctxObj = obj
				}
			}
		}
		if ctxObj == nil {
			return
		}
		capsule := nParams == 1 &&
			(ftype.Results == nil || len(ftype.Results.List) == 0)
		out = append(out, FuncInfo{
			Node: node, Body: body, Ctx: ctxObj, Capsule: capsule, Name: name,
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Recv != nil {
					for _, field := range fn.Recv.List {
						for _, id := range field.Names {
							if obj := pass.TypesInfo.Defs[id]; obj != nil && IsCtx(obj.Type()) {
								return true // Ctx method: the engine seam, not a capsule
							}
						}
					}
				}
				add(fn, fn.Type, fn.Body, fn.Name.Name)
			case *ast.FuncLit:
				add(fn, fn.Type, fn.Body, "function literal")
			}
			return true
		})
	}
	return out
}

// ---- call classification ----

// MethodCall resolves call as a method call and returns the receiver
// expression, the method name, and the receiver's type.
func MethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, recvType types.Type, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", nil, false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil, "", nil, false
	}
	return sel.X, sel.Sel.Name, selection.Recv(), true
}

// transferMethods is the exactly-one-of contract from ppm.Ctx's doc: "A
// capsule body must end with exactly one control transfer".
var transferMethods = map[string]bool{
	"Done": true, "Halt": true, "Then": true, "Seq": true,
	"Fork": true, "ForkThen": true, "ParallelFor": true,
}

// Transfer returns the control-transfer method name if call is one of
// Ctx.{Done,Halt,Then,Seq,Fork,ForkThen,ParallelFor}.
func Transfer(info *types.Info, call *ast.CallExpr) (string, bool) {
	_, name, recvType, ok := MethodCall(info, call)
	if ok && IsCtx(recvType) && transferMethods[name] {
		return name, true
	}
	return "", false
}

// AccessKind distinguishes the persistent-memory effects of a call.
type AccessKind int

const (
	// ReadAccess is an exposed-read candidate: Array.{Get,Slice,Gather,
	// GatherAt,FoldAt} or Ctx.Read.
	ReadAccess AccessKind = iota
	// WriteAccess is a persistent write: Array.{Set,SetRange,Scatter,
	// ScatterAt,CAMAt}, Ctx.Write, or Ctx.CAM (the model counts CAM as a
	// write).
	WriteAccess
)

// Access is one persistent-memory touch extracted from a call.
type Access struct {
	Kind AccessKind
	Call *ast.CallExpr
	// Array is the canonical text of the Array expression accessed ("sums",
	// "front[parity]", "a.level"), or "&<expr>" when the access went through
	// a raw address whose array is unknown (Ctx.Read/Write/CAM on anything
	// but <array>.At(i)). Two accesses conflict only within one key, so
	// raw-address accesses compare by expression text.
	Array string
	// Obj is the array's variable object when Array is a plain identifier
	// (used for NewBlockArray provenance); nil otherwise.
	Obj types.Object
	// Index is the canonical text of the element index for single-element
	// accesses (Get, Set, and At-based Read/Write/CAM); "" for bulk or
	// unknown ranges.
	Index string
}

var arrayReads = map[string]bool{
	"Get": true, "Slice": true, "Gather": true, "GatherAt": true, "FoldAt": true,
}
var arrayWrites = map[string]bool{
	"Set": true, "SetRange": true, "Scatter": true, "ScatterAt": true, "CAMAt": true,
}

// arrayKey renders the canonical identity of an Array-valued expression.
func arrayKey(info *types.Info, e ast.Expr) (string, types.Object) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, info.Uses[id]
	}
	return types.ExprString(e), nil
}

// addrTarget resolves the address argument of Ctx.Read/Write/CAM: through
// the <array>.At(i) idiom it yields the array and index; anything else is an
// opaque address compared by text.
func addrTarget(info *types.Info, e ast.Expr) (key string, obj types.Object, index string) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if recv, name, recvType, mok := MethodCall(info, call); mok &&
			name == "At" && IsArray(recvType) && len(call.Args) == 1 {
			key, obj = arrayKey(info, recv)
			return key, obj, types.ExprString(call.Args[0])
		}
	}
	return "&" + types.ExprString(e), nil, ""
}

// AccessOf extracts the persistent-memory access performed by call, if any.
func AccessOf(info *types.Info, call *ast.CallExpr) (Access, bool) {
	recv, name, recvType, ok := MethodCall(info, call)
	if !ok {
		return Access{}, false
	}
	switch {
	case IsArray(recvType):
		kind := ReadAccess
		switch {
		case arrayReads[name]:
		case arrayWrites[name]:
			kind = WriteAccess
		default:
			return Access{}, false
		}
		key, obj := arrayKey(info, recv)
		a := Access{Kind: kind, Call: call, Array: key, Obj: obj}
		if (name == "Get" || name == "Set") && len(call.Args) >= 2 {
			a.Index = types.ExprString(call.Args[1])
		}
		return a, true
	case IsCtx(recvType):
		var kind AccessKind
		switch name {
		case "Read":
			kind = ReadAccess
		case "Write", "CAM":
			kind = WriteAccess
		default:
			return Access{}, false
		}
		if len(call.Args) == 0 {
			return Access{}, false
		}
		key, obj, index := addrTarget(info, call.Args[0])
		return Access{Kind: kind, Call: call, Array: key, Obj: obj, Index: index}, true
	}
	return Access{}, false
}

// BlockSpaced reports whether obj is provably bound to a block-spaced array:
// its declaration initializes it with a single rt.NewBlockArray call.
// Distinct elements of a block-spaced array live in distinct blocks, so the
// warfree analyzer compares such accesses per element index instead of
// treating the whole array as one conflict unit.
func BlockSpaced(pass *Pass, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			switch d := n.(type) {
			case *ast.AssignStmt:
				if len(d.Lhs) != len(d.Rhs) {
					return true
				}
				for i, lhs := range d.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || pass.TypesInfo.Defs[id] != obj {
						continue
					}
					found = isNewBlockArrayCall(pass.TypesInfo, d.Rhs[i])
				}
			case *ast.ValueSpec:
				for i, id := range d.Names {
					if pass.TypesInfo.Defs[id] != obj || i >= len(d.Values) {
						continue
					}
					found = isNewBlockArrayCall(pass.TypesInfo, d.Values[i])
				}
			}
			return true
		})
		if found {
			break
		}
	}
	return found
}

func isNewBlockArrayCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	_, name, recvType, mok := MethodCall(info, call)
	return mok && name == "NewBlockArray" && isRuntimePtr(recvType)
}

// HarnessCall reports calls that belong to the harness side of the API and
// have no place inside a capsule: Array.{Load,Snapshot} bypass the engine's
// cost and fault accounting, and Runtime.{Register,Run,RunOnAll,NewArray,
// NewBlockArray} mutate runtime structure mid-run.
func HarnessCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	_, name, recvType, ok := MethodCall(info, call)
	if !ok {
		return "", false
	}
	switch {
	case IsArray(recvType) && (name == "Load" || name == "Snapshot"):
		return "Array." + name, true
	case isRuntimePtr(recvType):
		switch name {
		case "Register", "Run", "RunOnAll", "NewArray", "NewBlockArray":
			return "Runtime." + name, true
		}
	}
	return "", false
}

// EphemeralCall reports calls whose result lives only as long as the
// capsule — Array.{Gather,GatherAt} and Ctx.{Scratch,ScratchSpans}, whose
// ephemeral memory the native engine rewinds at the capsule's control
// transfer and loses on a fault, and Array.Slice, a view of persistent
// memory valid until that transfer — so it must not outlive the capsule.
func EphemeralCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	_, name, recvType, ok := MethodCall(info, call)
	if !ok {
		return "", false
	}
	switch {
	case IsArray(recvType) && (name == "Slice" || name == "Gather" || name == "GatherAt"):
		return "Array." + name, true
	case IsCtx(recvType) && (name == "Scratch" || name == "ScratchSpans"):
		return "Ctx." + name, true
	}
	return "", false
}

// HasOwnCtxParam reports whether the function literal declares its own
// ppm.Ctx parameter — such literals are analyzed as functions in their own
// right, so walkers over an enclosing body skip them.
func HasOwnCtxParam(info *types.Info, lit *ast.FuncLit) bool {
	if lit.Type.Params == nil {
		return false
	}
	for _, field := range lit.Type.Params.List {
		for _, id := range field.Names {
			if obj := info.Defs[id]; obj != nil && IsCtx(obj.Type()) {
				return true
			}
		}
	}
	return false
}
