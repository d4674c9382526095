// Package ppm is the analysistest stand-in for the real repro/ppm package:
// the same exported surface the analyzers key on (types Ctx, Array, Runtime,
// FuncRef, Call; the control-transfer, persistent-access, and harness
// methods), with do-nothing bodies. The analyzers match by package-path
// suffix "/ppm" plus type and method names, so fixtures type-checked against
// this stub exercise exactly the code paths real programs do.
package ppm

// Addr is a persistent-memory address.
type Addr int64

// Func is a capsule body.
type Func func(Ctx)

// Option configures a Runtime.
type Option func(*config)

type config struct{}

// Ctx is one capsule execution's view of the machine.
type Ctx struct{}

func (c Ctx) Int(i int) int                   { return 0 }
func (c Ctx) Uint(i int) uint64               { return 0 }
func (c Ctx) Addr(i int) Addr                 { return 0 }
func (c Ctx) NArgs() int                      { return 0 }
func (c Ctx) Proc() int                       { return 0 }
func (c Ctx) Procs() int                      { return 0 }
func (c Ctx) Rand() uint64                    { return 0 }
func (c Ctx) Read(a Addr) uint64              { return 0 }
func (c Ctx) Write(a Addr, v uint64)          {}
func (c Ctx) CAM(a Addr, old, new uint64)     {}
func (c Ctx) Alloc(n int) Array               { return Array{} }
func (c Ctx) Scratch(n int) []uint64          { return nil }
func (c Ctx) ScratchSpans(n int) [][2]int     { return nil }
func (c Ctx) Done()                           {}
func (c Ctx) Halt()                           {}
func (c Ctx) Then(next Call)                  {}
func (c Ctx) Seq(calls ...Call)               {}
func (c Ctx) Fork(left, right Call)           {}
func (c Ctx) ForkThen(left, right, join Call) {}
func (c Ctx) ParallelFor(body FuncRef, lo, hi, grain int, extra ...any) {
}

// Call is a bound continuation.
type Call struct{}

// FuncRef names a registered capsule.
type FuncRef struct{}

func (f FuncRef) Call(args ...any) Call { return Call{} }

// Fold names FoldAt's reduction.
type Fold uint8

const (
	FoldMin Fold = iota
	FoldSum
	FoldOr
)

// Array is a handle to a persistent array.
type Array struct{}

func (a Array) Len() int                                             { return 0 }
func (a Array) At(i int) Addr                                        { return 0 }
func (a Array) Load(vals []uint64)                                   {}
func (a Array) Snapshot() []uint64                                   { return nil }
func (a Array) Get(c Ctx, i int) uint64                              { return 0 }
func (a Array) Set(c Ctx, i int, v uint64)                           {}
func (a Array) Slice(c Ctx, lo, hi int) []uint64                     { return nil }
func (a Array) Gather(c Ctx, spans [][2]int, dst []uint64) []uint64  { return nil }
func (a Array) GatherAt(c Ctx, idx []uint64, dst []uint64) []uint64  { return nil }
func (a Array) FoldAt(c Ctx, op Fold, idx, lens, acc []uint64)       {}
func (a Array) CAMAt(c Ctx, idx []uint64, old uint64, vals []uint64) {}
func (a Array) ScatterAt(c Ctx, idx []uint64, vals []uint64)         {}
func (a Array) Scatter(c Ctx, spans [][2]int, src []uint64)          {}
func (a Array) SetRange(c Ctx, lo int, vals []uint64)                {}

// Runtime owns registration and runs.
type Runtime struct{}

func New(opts ...Option) *Runtime                        { return &Runtime{} }
func (r *Runtime) NewArray(n int) Array                  { return Array{} }
func (r *Runtime) NewBlockArray(n int) Array             { return Array{} }
func (r *Runtime) Register(name string, fn Func) FuncRef { return FuncRef{} }
func (r *Runtime) Run(root FuncRef, args ...any) bool    { return false }
func (r *Runtime) RunOnAll(fn FuncRef, args ...any)      {}
