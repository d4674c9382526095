package ppm

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/algos/blockio"
	"repro/internal/capsule"
	"repro/internal/forkjoin"
	"repro/internal/machine"
	"repro/internal/pmem"
	"repro/internal/sched"
)

// Engine names an execution backend.
//
//   - EngineModel is the faithful Parallel-PM simulator: per-block cost
//     accounting, fault injection, capsule replay, the WAR checker. Use it
//     to measure the model's work/depth/capsule bounds and to test fault
//     tolerance.
//   - EngineNative is a real goroutine-per-processor work-stealing runtime
//     (internal/native) executing the same programs directly on hardware —
//     orders of magnitude faster, with optional capsule-boundary
//     persistence points and soft faults emulated by capsule replay
//     (WithFaultRate), but no placed or hard faults and word-granular (not
//     block-granular) access counters.
//
// Programs written against Ctx and Array run on either engine unchanged.
type Engine string

const (
	// EngineModel selects the simulated Parallel-PM machine (the default).
	EngineModel Engine = "model"
	// EngineNative selects the goroutine work-stealing hardware backend.
	EngineNative Engine = "native"
)

// ParseEngine converts a string (e.g. a -engine flag value) to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case EngineModel, EngineNative:
		return Engine(s), nil
	}
	return "", fmt.Errorf("ppm: unknown engine %q (valid: %q, %q)", s, EngineModel, EngineNative)
}

// engine is the backend seam: everything a Runtime needs from its execution
// substrate. Both implementations present the same word-addressable memory,
// function registry, and fork-join execution; they differ in what runs
// underneath (simulated machine vs. goroutines).
type engine interface {
	name() Engine
	register(name string, fn Func, rt *Runtime) FuncRef
	tryRun(root FuncRef, args []uint64) (bool, error)
	runOnAll(fn FuncRef, args []uint64)
	close() error
	isClosed() bool
	heapAllocBlocks(n int) Addr
	memReadRange(a Addr, dst []uint64)   // harness-side: dst = words [a, a+len(dst))
	memWriteRange(a Addr, vals []uint64) // harness-side: words [a, a+len(vals)) = vals
	engineStats() Stats
	allocStats() AllocStats // zero-valued on engines without per-worker allocator arms
	schedStats() SchedStats // zero-valued on engines without a native scheduler
	procs() int
	blockWords() int
	warViolations() []string
	machine() *machine.Machine // nil on engines without a model machine
}

// capCtx is the per-capsule execution surface Ctx dispatches through — the
// engine-neutral analogue of capsule.Env. The model implementation charges
// block transfers and is subject to fault injection; the native one runs on
// hardware.
type capCtx interface {
	Arg(i int) uint64
	NArgs() int
	ProcID() int
	NumProcs() int
	Rand() uint64
	Read(a pmem.Addr) uint64
	Write(a pmem.Addr, v uint64)
	CAM(a pmem.Addr, old, new uint64)
	Alloc(n int) pmem.Addr
	Slice(base pmem.Addr, lo, hi int) []uint64
	Gather(base pmem.Addr, n int, spans [][2]int, dst []uint64) ([]uint64, bool)
	GatherAt(base pmem.Addr, n int, idx []uint64, dst []uint64) ([]uint64, bool)
	FoldAt(base pmem.Addr, n int, op Fold, idx, lens, acc []uint64) bool
	CAMAt(base pmem.Addr, n int, idx []uint64, old uint64, vals []uint64) bool
	ScatterAt(base pmem.Addr, n int, idx []uint64, vals []uint64) bool
	Scratch(n int) []uint64
	ScratchSpans(n int) [][2]int
	WriteRange(base pmem.Addr, lo, hi int, vals []uint64)
	Done()
	Halt()
	// Argument lists travel by value, so a capsule handing its successors
	// their words escapes nothing through this interface.
	Then(fid capsule.FuncID, args capsule.Args)
	// SeqBuf returns n-long step vectors for a Seq to fill and hand back;
	// the native engine reuses one pair per worker, so a Seq allocates
	// nothing.
	SeqBuf(n int) ([]capsule.FuncID, []capsule.Args)
	Seq(fids []capsule.FuncID, argss []capsule.Args)
	Fork(lf capsule.FuncID, la capsule.Args, rf capsule.FuncID, ra capsule.Args,
		jf capsule.FuncID, ja capsule.Args, hasJoin bool)
	ParallelFor(body capsule.FuncID, lo, hi, grain int, a0, a1 uint64)
}

// ---- model engine ----

// modelEngine wraps the simulator (the machine, the §6 work-stealing
// scheduler over it, and the §4 fork-join layer over both) behind the engine
// seam. The lifecycle flags give the simulator the same defined misuse
// errors as the native backend: a second Run while one is stepping the
// machine would corrupt closure-pool state, so it is refused, and a closed
// engine refuses to run at all (the simulator has no worker goroutines or
// region to release — Close only latches the flag).
type modelEngine struct {
	mach    *machine.Machine
	fj      *forkjoin.FJ
	running atomic.Bool
	closed  atomic.Bool
}

// dequeEntries is the scheduler's per-processor deque capacity.
const dequeEntries = 4096

func newModelEngine(c config) *modelEngine {
	m := machine.New(machine.Config{
		P:         c.procs,
		EphWords:  c.ephWords,
		MemWords:  c.memWords,
		PoolWords: c.poolWords,
		Seed:      c.seed,
		Check:     c.warCheck,
		Injector:  c.buildInjector(),
	})
	return &modelEngine{mach: m, fj: forkjoin.New(m, sched.New(m, dequeEntries))}
}

func (m *modelEngine) name() Engine { return EngineModel }

func (m *modelEngine) register(name string, fn Func, rt *Runtime) FuncRef {
	b := m.mach.BlockWords()
	fid := m.mach.Registry.Register(name, func(e capsule.Env) {
		fn(Ctx{e: &modelCtx{e: e, fj: m.fj, b: b}, rt: rt})
	})
	return FuncRef{fid: fid}
}

func (m *modelEngine) tryRun(root FuncRef, args []uint64) (bool, error) {
	if m.closed.Load() {
		return false, ErrRuntimeClosed
	}
	if !m.running.CompareAndSwap(false, true) {
		return false, ErrRuntimeBusy
	}
	defer m.running.Store(false)
	// A hard-faulted processor never restarts (the paper's model): a re-run
	// would assign it work that nobody executes and spin the survivors
	// forever, so it is refused up front. A fresh machine has no dead
	// processors, so first runs — including the hard-fault sweeps, whose
	// deaths happen mid-run — are never affected.
	for p := 0; p < m.mach.P(); p++ {
		if m.mach.Proc(p).Dead() {
			return false, ErrRuntimeDead
		}
	}
	return m.fj.Run(root.fid, args...), nil
}

func (m *modelEngine) close() error {
	m.closed.Store(true)
	return nil
}

func (m *modelEngine) isClosed() bool { return m.closed.Load() }

func (m *modelEngine) runOnAll(fn FuncRef, args []uint64) {
	for p := 0; p < m.mach.P(); p++ {
		m.mach.SetRestart(p, m.mach.BuildClosure(p, fn.fid, pmem.Nil, args...))
	}
	m.mach.Run()
}

func (m *modelEngine) heapAllocBlocks(n int) Addr { return m.mach.HeapAllocBlocks(n) }
func (m *modelEngine) engineStats() Stats         { return m.mach.Stats.Summarize() }
func (m *modelEngine) allocStats() AllocStats     { return AllocStats{} }
func (m *modelEngine) schedStats() SchedStats     { return SchedStats{} }
func (m *modelEngine) procs() int                 { return m.mach.P() }
func (m *modelEngine) blockWords() int            { return m.mach.BlockWords() }
func (m *modelEngine) warViolations() []string    { return m.mach.WARViolations() }
func (m *modelEngine) machine() *machine.Machine  { return m.mach }

func (m *modelEngine) memReadRange(a Addr, dst []uint64) {
	for i := range dst {
		dst[i] = m.mach.Mem.Read(a + Addr(i))
	}
}

func (m *modelEngine) memWriteRange(a Addr, vals []uint64) {
	for i, v := range vals {
		m.mach.Mem.Write(a+Addr(i), v)
	}
}

// modelCtx adapts capsule.Env + the fork-join layer to the capCtx surface.
// Every persistent access below is charged block transfers and is a
// potential fault point, exactly as before the engine split.
type modelCtx struct {
	e  capsule.Env
	fj *forkjoin.FJ
	b  int
}

func (m *modelCtx) Arg(i int) uint64                 { return m.e.Arg(i) }
func (m *modelCtx) NArgs() int                       { return m.e.NArgs() }
func (m *modelCtx) ProcID() int                      { return m.e.ProcID() }
func (m *modelCtx) NumProcs() int                    { return m.e.NumProcs() }
func (m *modelCtx) Rand() uint64                     { return m.e.Rand() }
func (m *modelCtx) Read(a pmem.Addr) uint64          { return m.e.Read(a) }
func (m *modelCtx) Write(a pmem.Addr, v uint64)      { m.e.Write(a, v) }
func (m *modelCtx) CAM(a pmem.Addr, old, new uint64) { m.e.CAM(a, old, new) }
func (m *modelCtx) Alloc(n int) pmem.Addr            { return m.e.Alloc(n) }

// The model engine's capsule-local vectors are ordinary Go slices: what it
// charges is block transfers, which these do not touch.
func (m *modelCtx) Scratch(n int) []uint64      { return make([]uint64, n) }
func (m *modelCtx) ScratchSpans(n int) [][2]int { return make([][2]int, n) }

func (m *modelCtx) Slice(base pmem.Addr, lo, hi int) []uint64 {
	dst := make([]uint64, hi-lo)
	blockio.ReadRange(m.e, m.b, base, lo, hi, func(idx int, v uint64) { dst[idx-lo] = v })
	return dst
}

// Gather issues the k spans as one batched round of block transfers: each
// touched block is charged exactly as a Slice of that span would charge it,
// but the batch is a single logical operation of the capsule (one round of
// concurrent transfers in the model's sense, not k dependent ones). The
// spans are checked against the n-word array before any is charged.
func (m *modelCtx) Gather(base pmem.Addr, n int, spans [][2]int, dst []uint64) ([]uint64, bool) {
	for _, s := range spans {
		if s[0] < 0 || s[1] > n || s[0] > s[1] {
			return nil, false
		}
	}
	for _, s := range spans {
		lo, hi := s[0], s[1]
		if lo >= hi {
			continue
		}
		at := len(dst)
		dst = append(dst, make([]uint64, hi-lo)...)
		blockio.ReadRange(m.e, m.b, base, lo, hi, func(idx int, v uint64) { dst[at+idx-lo] = v })
	}
	return dst, true
}

// GatherAt charges one block transfer per index, exactly what Gather charges
// a batch of one-word spans at the same positions.
func (m *modelCtx) GatherAt(base pmem.Addr, n int, idx []uint64, dst []uint64) ([]uint64, bool) {
	for _, i := range idx {
		if i >= uint64(n) {
			return nil, false
		}
		dst = append(dst, m.e.Read(base+pmem.Addr(i)))
	}
	return dst, true
}

// FoldAt charges what GatherAt charges for the same idx, one Read per index
// in index order, and folds each word into its segment's accumulator instead
// of a buffer.
func (m *modelCtx) FoldAt(base pmem.Addr, n int, op Fold, idx, lens, acc []uint64) bool {
	for s, l := range lens {
		a := acc[s]
		for _, i := range idx[:l] {
			if i >= uint64(n) {
				return false
			}
			v := m.e.Read(base + pmem.Addr(i))
			switch op {
			case FoldSum:
				a = math.Float64bits(math.Float64frombits(a) + math.Float64frombits(v))
			case FoldOr:
				a |= v
			default:
				a = min(a, v)
			}
		}
		acc[s] = a
		idx = idx[l:]
	}
	return true
}

// CAMAt and ScatterAt are the loops they batch: one charged, fault-pointed
// CAM or Write per index, in index order.
func (m *modelCtx) CAMAt(base pmem.Addr, n int, idx []uint64, old uint64, vals []uint64) bool {
	for k, i := range idx {
		if i >= uint64(n) {
			return false
		}
		m.e.CAM(base+pmem.Addr(i), old, vals[k])
	}
	return true
}

func (m *modelCtx) ScatterAt(base pmem.Addr, n int, idx []uint64, vals []uint64) bool {
	for k, i := range idx {
		if i >= uint64(n) {
			return false
		}
		m.e.Write(base+pmem.Addr(i), vals[k])
	}
	return true
}

func (m *modelCtx) WriteRange(base pmem.Addr, lo, hi int, vals []uint64) {
	blockio.WriteRange(m.e, m.b, base, lo, hi, vals)
}

func (m *modelCtx) Done() { m.fj.TaskDone(m.e) }
func (m *modelCtx) Halt() { m.e.Halt() }

func (m *modelCtx) Then(fid capsule.FuncID, args capsule.Args) {
	m.e.Install(m.e.NewClosure(fid, m.e.Cont(), args.Words()...))
}

func (m *modelCtx) SeqBuf(n int) ([]capsule.FuncID, []capsule.Args) {
	return make([]capsule.FuncID, n), make([]capsule.Args, n)
}

// Seq builds the step chain and installs it behind an epoch-advance capsule:
// each Seq is a sequential phase boundary, which lets the machine recycle
// closure-pool generations whose contents the finished phases have orphaned
// (see machine.PoolGens). Programs that never Seq never advance the epoch
// and see the pools' classic run-long bump allocation.
func (m *modelCtx) Seq(fids []capsule.FuncID, argss []capsule.Args) {
	if len(fids) == 0 {
		m.Done()
		return
	}
	cont := m.e.Cont()
	for i := len(fids) - 1; i >= 1; i-- {
		cont = m.e.NewClosure(fids[i], cont, argss[i].Words()...)
	}
	m.fj.InstallWithEpoch(m.e, m.e.NewClosure(fids[0], cont, argss[0].Words()...))
}

func (m *modelCtx) Fork(lf capsule.FuncID, la capsule.Args, rf capsule.FuncID, ra capsule.Args,
	jf capsule.FuncID, ja capsule.Args, hasJoin bool) {

	var jc pmem.Addr
	if hasJoin {
		jc = m.e.NewClosure(jf, m.e.Cont(), ja.Words()...)
	} else {
		jc = m.fj.NoopClosure(m.e, m.e.Cont())
	}
	m.fj.Fork2(m.e, lf, la.Words(), rf, ra.Words(), jc)
}

func (m *modelCtx) ParallelFor(body capsule.FuncID, lo, hi, grain int, a0, a1 uint64) {
	m.fj.ParallelFor(m.e, body, lo, hi, grain, a0, a1, m.e.Cont())
}
