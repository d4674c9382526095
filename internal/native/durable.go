package native

import (
	"errors"
	"fmt"
	"math"
	"syscall"

	"repro/internal/capsule"
	"repro/internal/durable"
	"repro/internal/pmem"
)

// This file is the native runtime's durable backend: run begin/commit
// bookkeeping against the mmap'd region, the root-chain recovery protocol,
// the kill(-9) crash-injection hook, and the soft-fault sentinel.
//
// Recovery model (paper §4, Theorem 3.1): a run's effects reach the region
// file continuously (MAP_SHARED stores survive SIGKILL; msync barriers cover
// the power-failure story). What recovery must reconstruct is *control*
// state: which work is known-complete and what remains. Two tiers:
//
//   1. Chain resume. Root-level Ctx.Seq calls record their step list in the
//      region. Step k starting means steps 0..k-1 — including everything
//      they forked — completed, so the runtime MS_SYNCs the data region and
//      advances a committed-step index there. Recovery re-enters the chain
//      at the committed index; completed phases are never re-run.
//   2. Root replay. With no (or an overflowed) chain record, recovery
//      re-executes the run from its recorded root closure. WAR-freedom
//      makes re-execution of already-finished capsules idempotent, so this
//      is always sound — just slower.
//
// Either way replay re-runs a whole phase (tier 2: the whole run), not a
// capsule per worker; the finished capsules in it re-run idempotently.

// errSoftFault is the sentinel the fault-emulation path panics with to abort
// the current capsule; the scheduler's recover barrier converts it into a
// replay of the same task.
var errSoftFault = errors.New("native: injected soft fault")

// ErrNotRecovered is returned by Resume on a runtime that did not come from
// Recover.
var ErrNotRecovered = errors.New("native: Resume requires a runtime built by Recover")

// ErrSync wraps a failed MS_SYNC barrier. The first one latches: the run it
// hit stops at that boundary, leaving the region as a kill there would, and
// TryRun, Resume and Close return it from then on — after EIO the kernel may
// have dropped dirty pages, so no later barrier can vouch for the file.
var ErrSync = errors.New("native: durable barrier failed")

// barrier folds one MS_SYNC outcome into the latch and reports whether the
// runtime may still commit. Callers are quiescent points of a run or hold
// runMu, so the latch needs no lock.
func (rt *Runtime) barrier(err error) bool {
	if err != nil && rt.syncErr == nil {
		rt.syncErr = fmt.Errorf("%w: %w", ErrSync, err)
	}
	return rt.syncErr == nil
}

// maybeFault draws one soft-fault trial covering n word accesses; on a hit
// it aborts the current capsule body via panic. No draws happen once the
// body performed its control transfer (see Ctx.transferred) — a capsule
// whose continuation escaped must not run twice. Callers pre-check
// w.faultThresh != 0 to keep the fault-free hot path to one compare.
func (w *Ctx) maybeFault(n int64) {
	if w.transferred {
		return
	}
	t := w.faultThresh
	if n > 1 {
		// The model faults each access independently, so n accesses fault
		// with probability 1 − (1 − f)^n. Scaling f by n instead saturates
		// at n·f ≥ 1, and a capsule whose bulk reads reach that replays
		// forever.
		t = faultThreshold(-math.Expm1(float64(n) * w.faultLog))
	}
	if w.rng.Next() <= t {
		w.softFaults++
		panic(errSoftFault)
	}
}

// faultThreshold scales a fault probability to the uint64 space the rng
// draws from, saturating at certainty.
func faultThreshold(p float64) uint64 {
	const span = float64(1 << 64)
	if p*span >= span {
		return math.MaxUint64
	}
	return uint64(p * span)
}

// CrashAfterPersists is a test seam; nothing outside a test assigns it. When
// positive, each runtime New builds SIGKILLs the process at its own n-th
// persistence point; the kill-9 drills set it in their child process.
var CrashAfterPersists int64

// crashNow is the CrashAfterPersists trigger: SIGKILL to self, exactly what
// the recovery drill wants — no deferred functions, no flushes, no goodbye.
func crashNow() {
	syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
	select {} // SIGKILL is not catchable; parked until the kernel reaps us
}

// funcSig fingerprints the registered program: capsule count plus an
// order-sensitive FNV hash of the names. Recovery refuses to resume when the
// re-registered program differs — FuncIDs are positional, so a different
// registration order would aim recorded closures at the wrong bodies.
func (rt *Runtime) funcSig() (count, hash uint64) {
	h := uint64(14695981039346656037)
	for _, name := range rt.fnames {
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		h = (h ^ 0x1f) * 1099511628211
	}
	return uint64(len(rt.fnames)), h
}

// beginDurableRun commits the run header before any capsule executes: root
// closure, program signature, cleared chain, state=running — and, on the
// first run, the setup high-water mark that recovery's allocation replay is
// bounded by. The MS_SYNC covers the Build phase's staged inputs too, so a
// crash at any later point recovers against complete setup state. It reports
// false, writing nothing, once a barrier has failed. Callers hold runMu.
func (rt *Runtime) beginDurableRun(root capsule.FuncID, args []uint64) bool {
	if rt.syncErr != nil {
		return false
	}
	reg := rt.region
	if reg.SetupHW() == 0 {
		reg.SetSetupHW(rt.heap.Load())
	}
	reg.SetFuncSig(rt.funcSig())
	reg.SetRoot(uint64(root), args)
	reg.ClearChain()
	reg.SetCommittedIdx(0)
	reg.RaiseHeapHW(rt.heap.Load())
	reg.SetState(durable.StateRunning)
	return rt.barrier(reg.SyncAll())
}

// finishDurableRun commits run completion: everything the run wrote, then
// state=done. After this, Recover reports a completed region and Resume has
// nothing to replay. After a failed barrier the state stays running.
func (rt *Runtime) finishDurableRun() bool {
	reg := rt.region
	if rt.syncErr != nil || !rt.barrier(reg.SyncAll()) {
		return false
	}
	reg.SetState(durable.StateDone)
	return rt.barrier(reg.SyncMeta())
}

// commitPhase marks root-chain steps [0, k) durably complete and reports
// whether the run may go on. The caller is the worker starting step k, a
// quiescent point: no other task of this run exists. Ordering: data first
// (MS_SYNC), then the committed index — the index never claims un-persisted
// effects; a failed data barrier leaves it where it is.
func (rt *Runtime) commitPhase(k int64) bool {
	reg := rt.region
	if reg == nil || k <= reg.CommittedIdx() {
		return true
	}
	if !rt.barrier(reg.SyncWords(0, int64(len(rt.mem)), true)) {
		return false
	}
	reg.SetCommittedIdx(k)
	return rt.barrier(reg.SyncMeta())
}

// recordChain persists a root-level Seq's step list (tier-1 recovery data).
func (rt *Runtime) recordChain(fids []capsule.FuncID, argss []capsule.Args) {
	steps := make([]durable.ChainStep, len(fids))
	for i := range fids {
		steps[i] = durable.ChainStep{Fid: uint64(fids[i]), Args: argss[i].Words()}
	}
	rt.region.RecordChain(steps)
}

// Recover reopens the durable region at path and builds a runtime over it in
// rebuild mode: re-register the same program, re-run the same Build phase
// (allocations replay to pre-crash addresses; input staging is suppressed —
// the file already holds it), then call Resume. Geometry (P, MemWords,
// BlockWords) comes from the file; cfg supplies the rest (scheduler knobs,
// fault emulation). A region that records no run cannot be resumed and is
// rejected here rather than panicking later.
func Recover(path string, cfg Config) (*Runtime, error) {
	reg, err := durable.Open(path)
	if err != nil {
		return nil, err
	}
	if reg.State() == durable.StateNew {
		reg.Close()
		return nil, fmt.Errorf("native: region %s records no run; nothing to recover", path)
	}
	cfg.P = reg.P()
	cfg.MemWords = reg.MemWords()
	cfg.BlockWords = reg.BlockWords()
	cfg.DurablePath = "" // already open; New's create path must not run
	cfg.fill()
	rt := build(cfg, reg, true)
	if got, want := rt.persistBase, pmem.Addr(reg.PersistBase()); got != want {
		rt.Close()
		return nil, fmt.Errorf("native: recovered persist base %d does not match recorded %d", got, want)
	}
	return rt, nil
}

// Resume exits rebuild mode and re-executes the interrupted run's
// un-committed tail. It returns true when the region now holds a completed
// run — including the already-complete case (a cleanly finished or Closed
// file), which replays nothing. Call it after re-registering the program
// and re-running Build, in place of the original Run call.
func (rt *Runtime) Resume() (bool, error) {
	if rt.region == nil || !rt.recovered {
		return false, ErrNotRecovered
	}
	if rt.closed.Load() {
		return false, ErrClosed
	}
	if !rt.runMu.TryLock() {
		return false, ErrBusy
	}
	defer rt.runMu.Unlock()
	if rt.closed.Load() {
		return false, ErrClosed
	}
	if rt.syncErr != nil {
		return false, rt.syncErr
	}
	rt.rebuild.Store(false)
	reg := rt.region
	switch reg.State() {
	case durable.StateDone:
		return true, nil
	case durable.StateRunning:
	default:
		return false, fmt.Errorf("native: region in unexpected state %d", reg.State())
	}
	if cnt, hash := rt.funcSig(); func() bool {
		rc, rh := reg.FuncSig()
		return rc != cnt || rh != hash
	}() {
		return false, errors.New("native: recovered program differs from the persisted run (capsule registration mismatch)")
	}

	rootJoin := &join{}
	rootJoin.pending.Store(1)
	var t *task
	if steps := reg.ChainSteps(); len(steps) > 0 {
		from := reg.CommittedIdx()
		if from >= int64(len(steps)) {
			from = int64(len(steps)) - 1
		}
		for _, s := range steps[from:] {
			if int(s.Fid) <= 0 || int(s.Fid) >= len(rt.funcs) {
				return false, fmt.Errorf("native: recorded chain step has unknown capsule id %d", s.Fid)
			}
		}
		t = rt.chainTask(steps, from, rootJoin)
	} else {
		fid, args := reg.Root()
		if int(fid) <= 0 || int(fid) >= len(rt.funcs) {
			return false, fmt.Errorf("native: recorded root has unknown capsule id %d", fid)
		}
		t = &task{kind: taskUser, fn: capsule.FuncID(fid), args: args, join: rootJoin, chainTail: true}
	}
	return rt.runLocked(t)
}

// chainTask rebuilds the un-committed suffix of a recorded root chain as the
// same join-linked task structure Seq would have produced, entering at step
// `from`. Steps keep their absolute phase index so freshly-made progress
// continues to commit, and only the last step is the chain tail — the one
// task whose own Seq may re-record the chain.
func (rt *Runtime) chainTask(steps []durable.ChainStep, from int64, rootJoin *join) *task {
	last := int64(len(steps)) - 1
	j := rootJoin
	for i := last; i > from; i-- {
		s := steps[i]
		st := &task{kind: taskUser, fn: capsule.FuncID(s.Fid), args: s.Args, join: j,
			chainTail: i == last, phase: int32(i)}
		sj := &join{cont: st}
		sj.pending.Store(1)
		j = sj
	}
	s := steps[from]
	return &task{kind: taskUser, fn: capsule.FuncID(s.Fid), args: s.Args, join: j,
		chainTail: from == last}
}

// Recovered reports whether this runtime was built by Recover.
func (rt *Runtime) Recovered() bool { return rt.recovered }
