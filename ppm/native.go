package ppm

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/native"
)

// AllocStats reports how the native engine's allocator behaved in a run:
// how often the workers' arms (one per worker) refilled a segment from the
// global region or spilled past it, and the region's high-water mark.
// Zero-valued on the model engine, whose single heap is part of the model's
// cost semantics.
type AllocStats = native.AllocStats

// SchedStats reports how the native engine's randomized work-stealing
// scheduler behaved in a run: steal probes, grabs, tasks moved (at most 8
// per grab) and parks, the times a worker blocked waiting for work.
// Zero-valued on the model engine, whose scheduler cost is part of the
// model's accounting.
type SchedStats = native.SchedStats

// nativeEngine runs programs on the goroutine work-stealing backend.
// internal/native.Ctx structurally implements capCtx, so the bridge is a
// thin translation of configuration and function IDs.
type nativeEngine struct {
	rt *native.Runtime
}

// nativeMemWords sizes the native flat memory when the user did not: the
// native engine has no closure pools, so the model's pool-heavy default
// would be wasteful, but arrays and capsule Alloc still share one heap.
const nativeMemWords = 1 << 23

func nativeConfig(c config) native.Config {
	mem := c.memWords
	if mem <= 0 {
		mem = nativeMemWords
	}
	return native.Config{
		P:           c.procs,
		MemWords:    mem,
		Seed:        c.seed,
		Persist:     c.nativePersist,
		DurablePath: c.nativeDurable,
		FaultRate:   c.faultRate,
		WARCheck:    c.warCheck,
	}
}

func newNativeEngine(c config) *nativeEngine {
	return &nativeEngine{rt: native.New(nativeConfig(c))}
}

// newRecoveredEngine reopens a durable region file; geometry (P, MemWords,
// BlockWords) comes from the file, the rest of the config applies as usual.
func newRecoveredEngine(path string, c config) (*nativeEngine, error) {
	rt, err := native.Recover(path, nativeConfig(c))
	if err != nil {
		return nil, err
	}
	return &nativeEngine{rt: rt}, nil
}

// resume exits rebuild mode and replays the interrupted run's tail.
func (n *nativeEngine) resume() (bool, error) {
	ok, err := n.rt.Resume()
	return ok, engineErr(err)
}

// engineErr translates the native engine's lifecycle errors into the
// package's own.
func engineErr(err error) error {
	switch {
	case errors.Is(err, native.ErrBusy):
		return ErrRuntimeBusy
	case errors.Is(err, native.ErrClosed):
		return ErrRuntimeClosed
	case errors.Is(err, native.ErrSync):
		return fmt.Errorf("%w: %v", ErrDurableSync, err)
	}
	return err
}

func (n *nativeEngine) name() Engine { return EngineNative }

func (n *nativeEngine) register(name string, fn Func, rt *Runtime) FuncRef {
	fid := n.rt.Register(name, func(c *native.Ctx) {
		fn(Ctx{e: c, rt: rt})
	})
	return FuncRef{fid: fid}
}

func (n *nativeEngine) tryRun(root FuncRef, args []uint64) (bool, error) {
	ok, err := n.rt.TryRun(root.fid, args...)
	return ok, engineErr(err)
}

func (n *nativeEngine) close() error   { return engineErr(n.rt.Close()) }
func (n *nativeEngine) isClosed() bool { return n.rt.Closed() }

func (n *nativeEngine) runOnAll(fn FuncRef, args []uint64) {
	n.rt.RunOnAll(fn.fid, args...)
}

func (n *nativeEngine) heapAllocBlocks(nw int) Addr { return n.rt.HeapAllocBlocks(nw) }
func (n *nativeEngine) engineStats() Stats          { return n.rt.Stats() }
func (n *nativeEngine) allocStats() AllocStats      { return n.rt.AllocStats() }
func (n *nativeEngine) schedStats() SchedStats      { return n.rt.SchedStats() }
func (n *nativeEngine) procs() int                  { return n.rt.P() }
func (n *nativeEngine) blockWords() int             { return n.rt.BlockWords() }
func (n *nativeEngine) warViolations() []string     { return n.rt.WARViolations() }
func (n *nativeEngine) machine() *machine.Machine   { return nil }

func (n *nativeEngine) memReadRange(a Addr, dst []uint64)   { n.rt.MemReadRange(a, dst) }
func (n *nativeEngine) memWriteRange(a Addr, vals []uint64) { n.rt.MemWriteRange(a, vals) }

// persistPoints exposes the native persistence-point counter (0 elsewhere).
func (n *nativeEngine) persistPoints() int64 { return n.rt.PersistPoints() }
