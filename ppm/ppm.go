// Package ppm is the public programming interface of the Parallel Persistent
// Memory runtime (Blelloch, Gibbons, Gu, McGuffey, Shun — SPAA'18). It wraps
// the execution backends behind a small typed surface:
//
//   - Runtime, built by New with functional options (WithProcs, WithEngine,
//     WithFaultRate, WithHardFault, ...), owns one execution engine: either
//     the faithful simulated Parallel-PM machine with its fault-tolerant
//     work-stealing scheduler (EngineModel, the default), or a real
//     goroutine-per-processor work-stealing runtime that executes the same
//     programs directly on hardware (EngineNative).
//   - Func is capsule code written against Ctx, which provides typed
//     argument accessors and hides join-cell and continuation plumbing
//     behind Fork, ForkThen, ParallelFor, Seq, and Done.
//   - Array is a typed persistent array replacing manual address arithmetic.
//   - Algorithm is the uniform workload interface (Build/Run/Output/Verify)
//     with a Catalog of the paper's Section 7 algorithms; every catalog
//     workload runs and verifies on both engines unchanged.
//
// A minimal program — a parallel tree sum that survives a 1% soft-fault rate
// and one processor dying mid-run:
//
//	rt := ppm.New(ppm.WithProcs(4), ppm.WithFaultRate(0.01),
//		ppm.WithHardFault(2, 1000), ppm.WithSeed(42))
//	in := rt.NewArray(n)        // fill with in.Load(...)
//	out := rt.NewArray(1)
//	var sum ppm.FuncRef
//	sum = rt.Register("sum", func(c ppm.Ctx) {
//		lo, hi, dst := c.Int(0), c.Int(1), c.Addr(2)
//		if hi-lo <= leaf {
//			acc := uint64(0)
//			for _, v := range in.Slice(c, lo, hi) {
//				acc += v
//			}
//			c.Write(dst, acc)
//			c.Done()
//			return
//		}
//		mid := (lo + hi) / 2
//		s := c.Alloc(2)
//		c.ForkThen(
//			sum.Call(lo, mid, s.At(0)),
//			sum.Call(mid, hi, s.At(1)),
//			combine.Call(s.At(0), s.At(1), dst))
//	})
//	rt.Run(sum, 0, n, out.At(0))
//
// Swapping ppm.WithEngine(ppm.EngineNative) into New, and dropping the
// hard fault that only the model simulates, runs the same program on real
// goroutines at hardware speed. The examples/ directory holds
// complete programs; the internal packages remain available for harnesses
// that need the raw simulated machine (see Machine).
package ppm

import (
	"errors"
	"fmt"

	"repro/internal/capsule"
	"repro/internal/machine"
	"repro/internal/pmem"
	"repro/internal/stats"
)

// Lifecycle errors: a Runtime executes one run at a time and stops accepting
// work after Close. TryRun returns these; Run panics with them.
var (
	ErrRuntimeBusy   = errors.New("ppm: runtime is already running")
	ErrRuntimeClosed = errors.New("ppm: runtime is closed")
	// ErrRuntimeDead refuses a re-run on a model runtime with hard-faulted
	// processors: in the paper's model a dead processor never restarts, so a
	// new computation would strand its share of the work. Build a fresh
	// runtime to run again after a hard-fault experiment.
	ErrRuntimeDead = errors.New("ppm: model runtime has hard-faulted processors")
	// ErrDurableSync reports that an MS_SYNC barrier of a WithNativeDurable
	// runtime failed (EIO, ENOMEM): the region file does not hold the run.
	// The run stopped at that barrier without committing, and TryRun, Resume
	// and Close keep returning the error; the file is left as a kill at that
	// point would leave it, for Recover on a healthy medium.
	ErrDurableSync = errors.New("ppm: durable barrier failed")
	// ErrUnsupportedOption refuses an option the selected engine cannot
	// honour, in place of a run that silently drops it: WithHardFault or
	// WithSoftFaultAt on the native engine or passed to Recover, and
	// WithNativePersist or WithNativeDurable on the model engine. New
	// panics with it (wrapped with the option's name); Recover returns it.
	ErrUnsupportedOption = errors.New("ppm: option not supported by the engine")
)

// Addr is a word address in the runtime's persistent memory.
type Addr = pmem.Addr

// Stats summarizes the cost counters of a run. On the model engine the
// counters are block transfers (the model's unit cost); on the native
// engine they are word accesses and wall-clock is the meaningful metric.
type Stats = stats.Summary

// Runtime is one assembled Parallel-PM system: P processors over a shared
// persistent memory, executed by the configured engine.
type Runtime struct {
	eng engine
}

// New assembles a runtime. With no options: the model engine, one
// processor, no faults, block size 8, and the write-after-read checker off.
// It panics with ErrUnsupportedOption if an option needs the other engine.
func New(opts ...Option) *Runtime {
	c := defaultConfig()
	for _, o := range opts {
		o(&c)
	}
	if err := c.unsupported(); err != nil {
		panic(err)
	}
	r := &Runtime{}
	switch c.engine {
	case EngineNative:
		r.eng = newNativeEngine(c)
	default:
		r.eng = newModelEngine(c)
	}
	return r
}

// Recover reopens a durable native region file (see WithNativeDurable) and
// returns a runtime in rebuild mode over it. The processor count and memory
// geometry come from the file; opts supply the rest (seed, fault rate,
// WAR check), and a model-only option returns ErrUnsupportedOption. The
// caller must then reconstruct the program exactly as the original process
// did — same registrations in the same order, same Build calls with the
// same parameters — and call Resume in place of the original Run. During
// rebuild, setup allocations replay to their pre-crash addresses and input
// staging (Array.Load, memory writes) is suppressed, because the file
// already holds the durable state; registration mismatches are detected and
// refused at Resume.
func Recover(path string, opts ...Option) (*Runtime, error) {
	c := defaultConfig()
	c.engine = EngineNative
	for _, o := range opts {
		o(&c)
	}
	if c.engine != EngineNative {
		return nil, fmt.Errorf("%w: Recover reopens a native region, not the %s engine", ErrUnsupportedOption, c.engine)
	}
	if err := c.unsupported(); err != nil {
		return nil, err
	}
	eng, err := newRecoveredEngine(path, c)
	if err != nil {
		return nil, err
	}
	return &Runtime{eng: eng}, nil
}

// Resume completes an interrupted run on a runtime built by Recover: it ends
// rebuild mode and re-executes only the un-committed tail of the persisted
// run — from the last durably committed root-chain step when one is
// recorded, or from the recorded root closure otherwise. Re-execution of
// capsules that had already finished is idempotent for WAR-free programs
// (Theorem 3.1), which ppmvet's warfree analyzer enforces statically. It
// returns true when the region holds a completed run afterwards; resuming a
// cleanly finished (or cleanly Closed) region returns true immediately
// without replaying anything. Calling Resume on a runtime that did not come
// from Recover returns an error.
func (r *Runtime) Resume() (bool, error) {
	n, ok := r.eng.(*nativeEngine)
	if !ok {
		return false, errors.New("ppm: Resume requires a runtime built by Recover")
	}
	return n.resume()
}

// Func is the body of a capsule — the unit of fault-tolerant execution. It
// must be deterministic in its closure arguments and the persistent memory
// it reads, and must end with exactly one control transfer (Done, Fork,
// ForkThen, ParallelFor, Seq, Then, or Halt).
type Func func(Ctx)

// FuncRef is a handle to a registered capsule function.
type FuncRef struct {
	fid capsule.FuncID
}

// Register adds fn under name and returns its handle. All registration must
// happen before the runtime runs; duplicate names panic.
func (r *Runtime) Register(name string, fn Func) FuncRef {
	return r.eng.register(name, fn, r)
}

// Run executes root(args...) as the root thread on the engine's scheduler,
// under the configured fault model, until it completes or (model engine)
// every processor has died. It returns true if the computation completed;
// results written to Arrays are then visible through Snapshot. A runtime may
// be Run repeatedly (the native engine keeps its worker goroutines resident
// and parks them between runs), but only one run may be in flight: Run on a
// busy or closed runtime panics with ErrRuntimeBusy / ErrRuntimeClosed.
// Callers that share a runtime across goroutines — a query service — should
// use TryRun and handle the error.
func (r *Runtime) Run(root FuncRef, args ...any) bool {
	ok, err := r.TryRun(root, args...)
	if err != nil {
		panic(err)
	}
	return ok
}

// TryRun is Run with a defined failure mode instead of a panic: it returns
// ErrRuntimeBusy when another run currently owns the engine (the overlapping
// run is refused outright rather than corrupting scheduler or pool state)
// and ErrRuntimeClosed after Close.
func (r *Runtime) TryRun(root FuncRef, args ...any) (bool, error) {
	return r.eng.tryRun(root, toWords(args))
}

// Close releases the runtime: it waits for any in-flight run to finish,
// tears down the native engine's resident worker goroutines, and frees its
// memory region (on the model engine there is nothing to tear down — Close
// only latches the closed flag). Close is idempotent. After Close, TryRun
// returns ErrRuntimeClosed and harness-side memory access (Snapshot, Load)
// panics. Long-lived processes that cache runtimes — the serving cache —
// must Close evicted entries or the regions accumulate.
func (r *Runtime) Close() error { return r.eng.close() }

// Closed reports whether Close has been called. Harness code that stages
// inputs with Array.Load before a TryRun checks this first: staging into a
// released region panics.
func (r *Runtime) Closed() bool { return r.eng.isClosed() }

// RunOnAll starts fn(args...) independently on every processor — no
// scheduler, no work stealing — and waits for all of them to halt or die.
// This is the mode for protocol demonstrations (racing CAM claims, manual
// capsule chains); each capsule chain must end with Halt.
func (r *Runtime) RunOnAll(fn FuncRef, args ...any) {
	r.eng.runOnAll(fn, toWords(args))
}

// Engine reports which backend this runtime executes on.
func (r *Runtime) Engine() Engine { return r.eng.name() }

// Stats summarizes the cost counters accumulated so far.
func (r *Runtime) Stats() Stats { return r.eng.engineStats() }

// AllocStats reports the native engine's allocator counters (segment
// refills, spills, heap high-water mark). Zero-valued on the model engine.
func (r *Runtime) AllocStats() AllocStats { return r.eng.allocStats() }

// SchedStats reports the native engine's work-stealing scheduler counters
// (probes, grabs, tasks moved by stealing, and parks: times a worker blocked
// waiting for work). Zero-valued on the model engine.
func (r *Runtime) SchedStats() SchedStats { return r.eng.schedStats() }

// WARViolations returns the write-after-read conflicts detected so far.
// Empty unless WithWARCheck was given.
func (r *Runtime) WARViolations() []string { return r.eng.warViolations() }

// Procs returns the number of processors P.
func (r *Runtime) Procs() int { return r.eng.procs() }

// BlockWords returns the persistent-memory block size B in words. The
// native engine keeps the model's block-aligned array layout even though it
// performs no block transfers, so programs compute identical addresses on
// both backends.
func (r *Runtime) BlockWords() int { return r.eng.blockWords() }

// PersistPoints returns the number of capsule-boundary persistence points
// the native engine committed (see WithNativePersist); 0 on the model
// engine, whose capsule installs are persistence points by construction.
func (r *Runtime) PersistPoints() int64 {
	if n, ok := r.eng.(*nativeEngine); ok {
		return n.persistPoints()
	}
	return 0
}

// Machine exposes the underlying simulated machine for harnesses that drive
// the model directly (the RAM/external-memory/cache simulations, watchers,
// custom injectors). Model engine only: the native engine has no simulated
// machine, and calling Machine on it panics.
func (r *Runtime) Machine() *machine.Machine {
	m := r.eng.machine()
	if m == nil {
		panic("ppm: Machine() requires the model engine (WithEngine(EngineModel))")
	}
	return m
}

// toWords converts ergonomic argument lists to closure words. Capsule
// arguments are uint64 words in the model; ints and Addrs are accepted so
// call sites stay cast-free.
func toWords(args []any) []uint64 {
	out := make([]uint64, len(args))
	for i, a := range args {
		out[i] = word(a)
	}
	return out
}

// word converts one argument to its closure word (see toWords).
func word(a any) uint64 {
	switch v := a.(type) {
	case uint64:
		return v
	case int:
		return uint64(v)
	case int64:
		return uint64(v)
	case uint:
		return uint64(v)
	case uint32:
		return uint64(v)
	case Addr:
		return uint64(v)
	case FuncRef:
		return uint64(v.fid)
	case bool:
		if v {
			return 1
		}
		return 0
	}
	panic("ppm: unsupported capsule argument type")
}
