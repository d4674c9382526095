package native

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capsule"
	"repro/internal/durable"
	"repro/internal/pmem"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/warcheck"
)

// Lifecycle errors. A Runtime is a resident resource: worker goroutines park
// between runs and one run owns them at a time, so misuse has defined
// outcomes instead of corrupted scheduler state.
var (
	// ErrBusy is returned by TryRun when another run is in flight on the
	// same runtime.
	ErrBusy = errors.New("native: runtime is already running")
	// ErrClosed is returned by TryRun after Close has torn the runtime down.
	ErrClosed = errors.New("native: runtime is closed")
)

// Config sizes a native runtime.
type Config struct {
	// P is the number of worker goroutines ("processors").
	P int
	// MemWords sizes the flat word-addressable memory (default 1<<23).
	// Address 0 is reserved as Nil, mirroring the model machine.
	MemWords int
	// BlockWords is B in words (default 8). The native engine has no block
	// transfers, but arrays keep the model's block-aligned layout so the
	// same program produces the same addresses on both backends.
	BlockWords int
	// Seed drives steal-victim selection.
	Seed uint64
	// Persist compiles a persistence point into every capsule boundary: a
	// committed write of the worker's capsule counter to a dedicated epoch
	// word, the overhead the paper's native experiments measure (§7).
	Persist bool
	// DurablePath, when non-empty, backs the word memory with an mmap'd
	// region file at this path (created fresh) and implies Persist; the
	// epoch words are in the file, and run/phase boundaries are MS_SYNC
	// barriers. kill -9 loses no completed store (MAP_SHARED); a power cut
	// loses nothing stored before the last barrier that returned. Recover
	// reopens such a file: a root Seq chain resumes at its committed phase,
	// any other root replays whole.
	DurablePath string
	// FaultRate enables replay-based soft-fault emulation: each tracked
	// memory access aborts the current capsule with this probability, and
	// the scheduler re-runs the capsule from its start at hardware speed —
	// the native counterpart of the model engine's fault injection, sound
	// for WAR-free programs (Theorem 3.1) and how the f < 1/(2C) replay
	// bound is measured natively. 0 disables.
	FaultRate float64
	// WARCheck threads a warcheck.Tracker through every capsule boundary and
	// memory operation: each worker tracks the block-granular access sequence
	// of its current task and records write-after-read conflicts (the same
	// Theorem 3.1 precondition the model machine's checker verifies). Native
	// allocations are block-aligned (see Ctx.Alloc), so block indices mean
	// the same thing on both engines. Debug-only: it adds a map touch per
	// memory operation.
	WARCheck bool
}

func (c *Config) fill() {
	if c.P <= 0 {
		c.P = 1
	}
	if c.BlockWords <= 0 {
		c.BlockWords = 8
	}
	if c.MemWords <= 0 {
		c.MemWords = 1 << 23
	}
}

// Task kinds. A user task runs a registered function; a pfor task expands a
// balanced fork-join tree over an index range; a nop task exists only to
// forward completion to its join (forks without a combine step).
const (
	taskUser = iota
	taskPfor
	taskNop
)

// task is one capsule-granular unit of work: a function, its argument words,
// and the join awaiting its completion. It is the native analogue of a
// closure in the model's persistent memory, and like the model's closure
// pools it is recycled rather than collected: every task a capsule starts
// comes off the executing worker's free list (see newTask), and execute
// returns it there once its body and its persistence point are done, when
// nothing refers to it any more — a stale deque slot may still hold the
// pointer, but a slot is only ever dereferenced by whoever wins its index.
type task struct {
	kind uint8
	fn   capsule.FuncID
	// args is the task's argument words: inline[:n] when they fit there,
	// else a heap slice shared with whoever built it (read-only).
	args   []uint64
	inline [capsule.InlineArgs]uint64
	join   *join

	// chainTail marks the task at the tail of the run's root chain: the root
	// itself, the LAST step of a Seq issued by a chainTail task, and Then
	// continuations of either. Only a chainTail task's Seq records its steps
	// durably (the driver-re-Seqs-each-round pattern: the new chain replaces
	// the whole remaining spine). A middle step's Seq is a sub-chain — the
	// steps after it live only in join cells, so recording it would lose
	// them, and recovery would "complete" half a run.
	chainTail bool
	// phase k > 0 means this task is root-chain step k: every earlier step's
	// entire subcomputation has completed when it starts, so the durable
	// backend commits phase k (MS_SYNC + committed-index advance) there.
	phase int32
}

// join is the last-arriver cell of a fork: when pending reaches zero the
// continuation task runs. It replaces the model's CAM-based join-end
// protocol; without faults an atomic counter is all that is needed. Joins
// are recycled like tasks: the last arriver is the only party still holding
// one, so resolve returns it to that worker's free list.
type join struct {
	pending atomic.Int32
	cont    *task // nil only for the root join: completion ends the run
}

// freeListCap bounds each per-worker free list. A thief frees the tasks and
// joins its victim allocated, so without a cap one worker's list would grow
// by every object that migrated to it; past the cap, a freed object is left
// to the collector.
const freeListCap = 4096

// newTask returns a task for fn under j, from the free list when it has one.
// The caller sets args.
func (w *Ctx) newTask(kind uint8, fn capsule.FuncID, j *join) *task {
	var t *task
	if n := len(w.freeTasks); n > 0 {
		t = w.freeTasks[n-1]
		w.freeTasks = w.freeTasks[:n-1]
	} else {
		t = new(task)
	}
	t.kind, t.fn, t.join, t.chainTail, t.phase = kind, fn, j, false, 0
	return t
}

// callTask is newTask for a user call, with args copied in by value.
func (w *Ctx) callTask(fn capsule.FuncID, args *capsule.Args, j *join) *task {
	t := w.newTask(taskUser, fn, j)
	t.args = args.Into(&t.inline)
	return t
}

func (w *Ctx) freeTask(t *task) {
	t.args, t.join = nil, nil
	if len(w.freeTasks) < freeListCap {
		w.freeTasks = append(w.freeTasks, t)
	}
}

// newJoin returns a join awaiting pending completions before cont runs.
func (w *Ctx) newJoin(cont *task, pending int32) *join {
	var j *join
	if n := len(w.freeJoins); n > 0 {
		j = w.freeJoins[n-1]
		w.freeJoins = w.freeJoins[:n-1]
	} else {
		j = new(join)
	}
	j.cont = cont
	j.pending.Store(pending)
	return j
}

func (w *Ctx) freeJoin(j *join) {
	j.cont = nil
	if len(w.freeJoins) < freeListCap {
		w.freeJoins = append(w.freeJoins, j)
	}
}

// Runtime is one native execution engine instance.
type Runtime struct {
	cfg Config

	mem      []uint64
	heap     atomic.Int64 // global region bump pointer; worker arms refill from it
	segWords int          // words an arm reserves per refill (see segWords)

	funcs  []func(*Ctx)
	names  map[string]capsule.FuncID
	fnames []string // FuncID -> name, for WAR diagnostics

	workers []*Ctx
	done    atomic.Bool
	// sleepers counts the workers parked in schedLoop (see park). Every
	// spawn reads it, so it sits on a line of its own, apart from done and
	// the deque headers.
	sleepers *lineCounter

	persistBase pmem.Addr // P block-spaced epoch words, when Persist is on

	// Durable backend state. region is nil unless DurablePath was set or the
	// runtime came from Recover. A recovered runtime starts in rebuild mode:
	// harness writes are suppressed (the region already holds the durable
	// state) and setup allocations replay from replayCur so Build reproduces
	// the pre-crash addresses; Resume exits rebuild mode and re-executes the
	// un-committed tail. crashAfter is CrashAfterPersists as New read it,
	// and persistCtr the runtime-wide persistence-point count it triggers
	// on. syncErr latches the first failed MS_SYNC barrier (see barrier).
	region     *durable.Region
	recovered  bool
	rebuild    atomic.Bool
	replayCur  int64
	crashAfter int64
	persistCtr atomic.Int64
	syncErr    error

	// Lifecycle. Workers are resident goroutines: the first Run starts them,
	// they park on runCond between runs, and Close stops them and releases
	// the region. runMu is held for the whole of a run (TryLock gives the
	// defined ErrBusy on overlap) and taken by Close so shutdown waits for
	// any in-flight run. runGen and stopping are guarded by parkMu. runDone
	// holds the one token the last worker out of a run sends; it is made
	// once, so a run allocates no channel. root and rootJoin are TryRun's
	// root task and its join, reset by each run under runMu; they never
	// enter a worker's free list.
	runMu    sync.Mutex
	closed   atomic.Bool
	parkMu   sync.Mutex
	parkCond *sync.Cond
	runGen   uint64
	runDone  chan struct{}
	stopping bool
	started  bool // workers launched (guarded by runMu)
	active   atomic.Int32
	wg       sync.WaitGroup
	root     task
	rootJoin join
}

// New builds a native runtime. With Config.DurablePath set it creates the
// backing region file; file-system failure there panics, since an engine
// constructor has no error path and a mis-created durable region must not
// silently degrade to volatile memory. Use Recover to reopen an existing
// file.
func New(cfg Config) *Runtime {
	cfg.fill()
	var reg *durable.Region
	if cfg.DurablePath != "" {
		var err error
		reg, err = durable.Create(cfg.DurablePath, cfg.P, cfg.MemWords, cfg.BlockWords)
		if err != nil {
			panic(fmt.Sprintf("native: durable region: %v", err))
		}
	}
	rt := build(cfg, reg, false)
	rt.crashAfter = CrashAfterPersists
	return rt
}

func build(cfg Config, reg *durable.Region, recovered bool) *Runtime {
	if reg != nil {
		cfg.Persist = true
	}
	rt := &Runtime{
		cfg:       cfg,
		segWords:  segWords(cfg),
		funcs:     []func(*Ctx){nil}, // ID 0 reserved, as in capsule.Registry
		names:     map[string]capsule.FuncID{},
		fnames:    []string{""},
		region:    reg,
		recovered: recovered,
		sleepers:  new(lineCounter),
		runDone:   make(chan struct{}, 1),
	}
	if reg != nil {
		rt.mem = reg.Words()
	} else {
		rt.mem = make([]uint64, cfg.MemWords)
	}
	if recovered {
		// Rebuild mode: Build-phase allocations replay deterministically from
		// the bottom of the region while real (capsule-side) allocation
		// resumes above the durable high-water mark, so nothing written
		// before the crash can be clobbered or handed out again.
		rt.rebuild.Store(true)
		rt.replayCur = int64(cfg.BlockWords)
		hw := reg.HeapHW()
		if hw < int64(cfg.BlockWords) {
			hw = int64(cfg.BlockWords)
		}
		rt.heap.Store(hw)
	} else {
		rt.heap.Store(int64(cfg.BlockWords)) // word 0 reserved as Nil
	}
	if cfg.Persist {
		rt.persistBase = rt.HeapAllocBlocks(cfg.P * cfg.BlockWords)
		if reg != nil && !recovered {
			reg.SetPersistBase(int64(rt.persistBase))
		}
	}
	rt.parkCond = sync.NewCond(&rt.parkMu)
	sm := rng.NewSplitMix64(cfg.Seed ^ 0xa5a5a5a5deadbeef)
	rt.workers = make([]*Ctx, cfg.P)
	var faultThresh uint64
	var faultLog float64
	if cfg.FaultRate > 0 {
		f := min(cfg.FaultRate, 1)
		faultThresh = faultThreshold(f)
		faultLog = math.Log1p(-f)
	}
	for p := 0; p < cfg.P; p++ {
		timer := time.NewTimer(parkFallback)
		timer.Stop() // park resets it
		rt.workers[p] = &Ctx{
			rt:          rt,
			id:          p,
			dq:          newDeque(dequeCap),
			rng:         rng.NewXoshiro256(sm.Next()),
			war:         warcheck.New(cfg.WARCheck),
			faultThresh: faultThresh,
			faultLog:    faultLog,
			wake:        make(chan struct{}, 1),
			timer:       timer,
		}
	}
	return rt
}

// Register adds body under name and returns its function ID. Registration
// must finish before the runtime runs; duplicate names panic, mirroring the
// model registry's contract.
func (rt *Runtime) Register(name string, body func(*Ctx)) capsule.FuncID {
	if body == nil {
		panic("native: nil function")
	}
	if _, dup := rt.names[name]; dup {
		panic("native: duplicate function name " + name)
	}
	id := capsule.FuncID(len(rt.funcs))
	rt.funcs = append(rt.funcs, body)
	rt.fnames = append(rt.fnames, name)
	rt.names[name] = id
	return id
}

// P returns the worker count.
func (rt *Runtime) P() int { return rt.cfg.P }

// BlockWords returns the layout block size B.
func (rt *Runtime) BlockWords() int { return rt.cfg.BlockWords }

// ---- memory ----

func (rt *Runtime) check(a pmem.Addr) {
	if a <= 0 || int64(a) >= int64(len(rt.mem)) {
		if rt.closed.Load() {
			panic(ErrClosed)
		}
		panic(fmt.Sprintf("native: address %d out of range (size %d)", a, len(rt.mem)))
	}
}

// MemRead reads a word (harness-side).
func (rt *Runtime) MemRead(a pmem.Addr) uint64 {
	rt.check(a)
	return atomic.LoadUint64(&rt.mem[a])
}

// MemWrite writes a word (harness-side). In rebuild mode (a recovered
// runtime before Resume) the store is suppressed: the mmap'd region already
// holds the durable bytes, and re-staging inputs must not clobber effects
// the crashed run had already committed past.
func (rt *Runtime) MemWrite(a pmem.Addr, v uint64) {
	rt.check(a)
	if rt.rebuild.Load() {
		return
	}
	atomic.StoreUint64(&rt.mem[a], v)
}

// MemReadRange copies the words at [a, a+len(dst)) into dst (harness-side):
// one range check and one copy. Like every harness access it must not
// overlap a run.
func (rt *Runtime) MemReadRange(a pmem.Addr, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	rt.check(a)
	rt.check(a + pmem.Addr(len(dst)-1))
	copy(dst, rt.mem[a:])
}

// MemWriteRange stores vals at [a, a+len(vals)) (harness-side), suppressed
// in rebuild mode exactly like MemWrite.
func (rt *Runtime) MemWriteRange(a pmem.Addr, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	rt.check(a)
	rt.check(a + pmem.Addr(len(vals)-1))
	if rt.rebuild.Load() {
		return
	}
	copy(rt.mem[a:], vals)
}

// HeapAllocBlocks reserves n words starting at a block boundary. This is
// the harness-side (setup-time) allocator and draws directly from the
// global region; capsule-side Alloc goes through the workers' arms.
//
// In rebuild mode the reservation replays against a private cursor instead
// of the live bump pointer: the recovered Build phase must hand back the
// exact pre-crash addresses (allocation order is deterministic) without
// disturbing the real heap, which starts above the durable high-water mark.
func (rt *Runtime) HeapAllocBlocks(n int) pmem.Addr {
	if rt.rebuild.Load() {
		b := int64(rt.cfg.BlockWords)
		start := (rt.replayCur + b - 1) / b * b
		if hw := rt.region.SetupHW(); start+int64(n) > hw {
			panic(fmt.Sprintf(
				"native: recovery setup allocation (%d words at %d) exceeds the recorded setup high-water mark %d; rebuild the same program with the same parameters",
				n, start, hw))
		}
		rt.replayCur = start + int64(n)
		return pmem.Addr(start)
	}
	return rt.reserve(n)
}

// ---- run ----

// Run executes root(args...) to completion on all P workers and returns
// whether the computation finished (it always does natively — hard faults
// are a model-engine concern). Run on a busy or closed runtime panics with
// ErrBusy/ErrClosed; long-lived callers that share a runtime should use
// TryRun and handle the error.
func (rt *Runtime) Run(root capsule.FuncID, args ...uint64) bool {
	ok, err := rt.TryRun(root, args...)
	if err != nil {
		panic(err)
	}
	return ok
}

// TryRun is Run with a defined failure mode: it returns ErrBusy when another
// run currently owns the workers (instead of two roots corrupting the deques
// and join state) and ErrClosed after Close. Sequential reuse of one runtime
// across many runs — the serving pattern — is the intended use; the resident
// workers park between runs instead of being respawned.
func (rt *Runtime) TryRun(root capsule.FuncID, args ...uint64) (bool, error) {
	if rt.closed.Load() {
		return false, ErrClosed
	}
	if !rt.runMu.TryLock() {
		return false, ErrBusy
	}
	defer rt.runMu.Unlock()
	if rt.closed.Load() {
		// Close won the race for runMu and already tore the workers down.
		return false, ErrClosed
	}
	if rt.rebuild.Load() {
		// A recovered runtime still in rebuild mode has suppressed writes;
		// running fresh work on it would compute against phantom inputs.
		return false, errors.New("native: recovered runtime must Resume before running fresh work")
	}
	if rt.region != nil && !rt.beginDurableRun(root, args) {
		return false, rt.syncErr
	}
	rt.rootJoin.pending.Store(1)
	rt.root = task{kind: taskUser, fn: root, args: args, join: &rt.rootJoin, chainTail: true}
	return rt.runLocked(&rt.root)
}

// runLocked pushes t, the run's root, onto worker 0's deque and drives the
// resident workers through one run generation. Callers hold runMu. Every
// worker left schedLoop before the previous run's token arrived, so the
// deque has no owner to race, and the push happens before the runGen
// broadcast each worker waits on; thieves take the root like any task.
func (rt *Runtime) runLocked(t *task) (bool, error) {
	rt.ensureStarted()

	rt.done.Store(false)
	rt.workers[0].dq.push(t)

	rt.active.Store(int32(rt.cfg.P))
	rt.parkMu.Lock()
	rt.runGen++
	rt.parkCond.Broadcast()
	rt.parkMu.Unlock()
	// The last worker to drain out of schedLoop sends the run's token; the
	// atomic decrement chain orders every worker's counters before our
	// return.
	<-rt.runDone
	if rt.region != nil && !rt.finishDurableRun() {
		return false, rt.syncErr
	}
	return true, nil
}

// ensureStarted launches the resident worker goroutines on first use.
// Callers hold runMu.
func (rt *Runtime) ensureStarted() {
	if rt.started {
		return
	}
	rt.started = true
	rt.wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go rt.workerLoop(w)
	}
}

// workerLoop is one resident worker: park until a run generation is
// published (or shutdown), drain the run via schedLoop, report completion,
// park again.
func (rt *Runtime) workerLoop(w *Ctx) {
	defer rt.wg.Done()
	var seen uint64
	for {
		rt.parkMu.Lock()
		for rt.runGen == seen && !rt.stopping {
			rt.parkCond.Wait()
		}
		if rt.stopping {
			rt.parkMu.Unlock()
			return
		}
		seen = rt.runGen
		rt.parkMu.Unlock()
		w.schedLoop()
		if rt.active.Add(-1) == 0 {
			rt.runDone <- struct{}{}
		}
	}
}

// Close tears the runtime down: it waits for any in-flight run to complete,
// stops and joins the resident worker goroutines, and releases the memory
// region. Close is idempotent; TryRun after Close returns ErrClosed, and
// harness-side memory access panics. A runtime that never ran closes without
// ever having started workers. A durable runtime's Close returns the latched
// barrier error, if any, else the final flush's.
func (rt *Runtime) Close() error {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	if rt.closed.Swap(true) {
		return nil
	}
	if rt.started {
		rt.parkMu.Lock()
		rt.stopping = true
		rt.parkCond.Broadcast()
		rt.parkMu.Unlock()
		rt.wg.Wait()
	}
	// Drop the memory so a multi-hundred-MB serving cache entry is
	// reclaimed at eviction, not at process exit.
	rt.mem = nil
	if rt.region != nil {
		// Workers are parked/stopped, so this is the single final flush:
		// MS_SYNC the whole mapping, unmap, close the file. The Region's own
		// once-latch makes a second Close (impossible here, but cheap to
		// state) a no-op.
		rt.barrier(rt.region.Close())
		rt.region = nil
		return rt.syncErr
	}
	return nil
}

// Closed reports whether Close has run.
func (rt *Runtime) Closed() bool { return rt.closed.Load() }

// RunOnAll starts fn(args...) independently on every worker — no deques, no
// stealing — and waits for every chain to Halt. This mirrors the model
// machine's manual-chain mode used by protocol demonstrations. The chains
// run on the workers' Ctx state but on dedicated goroutines, so the resident
// workers stay parked; the run lock still applies (panics with ErrBusy /
// ErrClosed on misuse, like Run).
func (rt *Runtime) RunOnAll(fn capsule.FuncID, args ...uint64) {
	if rt.closed.Load() {
		panic(ErrClosed)
	}
	if !rt.runMu.TryLock() {
		panic(ErrBusy)
	}
	defer rt.runMu.Unlock()
	if rt.closed.Load() {
		panic(ErrClosed)
	}
	rt.done.Store(false)
	var wg sync.WaitGroup
	for _, w := range rt.workers {
		wg.Add(1)
		go func(w *Ctx) {
			defer wg.Done()
			w.execute(&task{kind: taskUser, fn: fn, args: args})
		}(w)
	}
	wg.Wait()
}

// Stats summarizes per-worker counters into the shared Summary shape. The
// native engine counts word accesses (there are no block transfers), so
// Work is word-granular; scheduler bookkeeping touches no shared memory, so
// all of it is user work.
func (rt *Runtime) Stats() stats.Summary {
	var out stats.Summary
	out.P = rt.cfg.P
	for _, w := range rt.workers {
		t := w.reads + w.writes
		out.Reads += w.reads
		out.Writes += w.writes
		out.Work += t
		out.UserWork += t
		out.Capsules += w.capsules
		out.Steals += w.steals
		out.StealTries += w.stealTries
		out.SoftFaults += w.softFaults
		out.Restarts += w.replays
		if t > out.MaxProcWork {
			out.MaxProcWork = t
		}
		if w.maxTaskWork > out.MaxCapsWork {
			out.MaxCapsWork = w.maxTaskWork
		}
	}
	return out
}

// PersistPoints returns the total number of capsule-boundary persistence
// points committed (0 unless Config.Persist). The per-worker counters are
// atomic, so this is safe to call while a run is in flight — the serving
// layer reports it live.
func (rt *Runtime) PersistPoints() int64 {
	var n int64
	for _, w := range rt.workers {
		n += w.persists.Load()
	}
	return n
}

// WARViolations returns the write-after-read conflicts the per-worker
// trackers recorded (empty unless Config.WARCheck). Call after Run/RunOnAll
// returns; the log is bounded per worker, so a pathological program cannot
// flood memory with diagnostics.
func (rt *Runtime) WARViolations() []string {
	var out []string
	for _, w := range rt.workers {
		out = append(out, w.warLog...)
	}
	return out
}

// ---- worker / execution context ----

// Ctx is one worker's execution context: the receiver capsule bodies run
// against. It exposes the same operation set the model's capsule.Env gives
// typed programs — argument access, word reads/writes, CAM, allocation, and
// the control transfers — implemented directly on hardware.
type Ctx struct {
	rt  *Runtime
	id  int
	dq  *deque
	rng *rng.Xoshiro256

	// This worker's allocator arm (see Alloc): the bump cursor and end of
	// its current segment of the global region.
	segCur, segEnd int64

	cur  *task
	next *task

	// LIFO free lists of executed tasks and resolved joins, each at most
	// freeListCap long; only this worker's goroutine touches them.
	freeTasks []*task
	freeJoins []*join

	// The step vectors SeqBuf lends one Seq at a time (see SeqBuf).
	seqFids []capsule.FuncID
	seqArgs []capsule.Args

	// Ephemeral memory (see arena): word buffers for Gather, GatherAt and
	// Scratch, span vectors for ScratchSpans. Rewound by runTask.
	eph      arena[uint64]
	ephSpans arena[[2]int]

	// war tracks the current task's block-granular access sequence when
	// Config.WARCheck is on; warLog accumulates formatted conflicts (bounded).
	war    *warcheck.Tracker
	warLog []string

	// Soft-fault emulation (faultThresh is FaultRate scaled to uint64 space;
	// 0 = off; faultLog is ln(1 − FaultRate)). transferred flips once the
	// current body performs its control transfer: from then on an abort would
	// risk re-running a capsule whose continuation already escaped, so no more
	// faults are drawn — the model injects faults only up to the capsule's
	// closing persist, same idea.
	faultThresh uint64
	faultLog    float64
	transferred bool

	// Park state (see park): parked is set while the worker is registered
	// as asleep; wake carries the one token a waker owes it; timer is the
	// fallback, stopped and drained whenever the worker is not parked.
	parked atomic.Bool
	wake   chan struct{}
	timer  *time.Timer

	// Counters are plain fields: each is touched only by the owning worker
	// goroutine during a run and read by the harness after Wait. persists is
	// atomic as the one exception — serving reads it live (/statsz) while
	// runs are in flight.
	reads, writes      int64
	capsules           int64
	steals, stealTries int64
	batchTasks         int64
	parks              int64
	fallbacks          int64 // parks that ended on the fallback timer
	refills, spills    int64
	persists           atomic.Int64
	softFaults         int64
	replays            int64
	taskWork           int64
	maxTaskWork        int64

	// The workers' contexts are allocated back to back, and every tracked
	// access writes the counters above and reads rt. Without this pad, a
	// context whose size class is not a multiple of 64 bytes can end on the
	// cache line where the next one begins, and the two workers then miss on
	// that line at every access.
	_ [64]byte
}

// schedLoop is the work-stealing scheduler: own deque first, then randomized
// stealing (see trySteal). An idle worker yields its thread for spinWindow
// empty probes, then parks until a spawn or the end of the run wakes it (see
// park): on machines with fewer cores than P, a spinning thief would steal
// cycles from the worker that has the work, and a napping one would sleep
// through work that appeared. Each park is counted so SchedStats makes idle
// pressure visible.
func (w *Ctx) schedLoop() {
	misses := 0
	for !w.rt.done.Load() {
		t := w.dq.popBottom()
		if t == nil {
			t = w.trySteal()
		}
		if t == nil {
			if misses++; misses < spinWindow {
				runtime.Gosched()
			} else {
				w.park()
				misses = 0
			}
			continue
		}
		misses = 0
		w.execute(t)
	}
}

// trySteal is plain randomized work stealing: sweep every other worker once,
// in id order from a random start. A successful grab takes up to half the
// victim's deque (stealHalf, at most stealBatch tasks), executes the first
// task and keeps the rest local, so a burst of fine-grained spawns migrates
// with one victim interaction instead of one per task.
func (w *Ctx) trySteal() *task {
	n := w.rt.cfg.P - 1
	if n == 0 {
		return nil
	}
	start := int(w.rng.Next() % uint64(n))
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v >= w.id {
			v++ // skip this worker's own deque
		}
		w.stealTries++
		first, got := w.rt.workers[v].dq.stealHalf(w.dq, stealBatch)
		if first != nil {
			w.steals++
			w.batchTasks += int64(got)
			return first
		}
	}
	return nil
}

// execute runs a task chain to its end: each body performs exactly one
// control transfer, which either sets w.next (continue in this worker) or
// ends the chain (Done resolved elsewhere, or Halt).
func (w *Ctx) execute(t *task) {
	for t != nil {
		if t.phase > 0 && !w.rt.commitPhase(int64(t.phase)) {
			// Step k of the root chain starts only after steps 0..k-1 — and
			// everything they forked — completed, so the phase boundary is
			// quiescent and safe to commit durably. A commit whose barrier
			// failed ends the run here, as a kill at this boundary would:
			// later steps may overwrite what the uncommitted ones read.
			w.rt.endRun()
			return
		}
		w.cur, w.next = t, nil
		w.capsules++
		w.runTask(t)
		if w.taskWork > w.maxTaskWork {
			w.maxTaskWork = w.taskWork
		}
		if w.rt.cfg.Persist {
			w.persistPoint()
		}
		if t != &w.rt.root {
			w.freeTask(t)
		}
		t = w.next
	}
}

// runTask runs one task body, replaying it from the start whenever soft-fault
// emulation aborts it (sound for WAR-free capsules, Theorem 3.1). Ephemeral
// state is the body's locals and the worker's arena, both discarded by the
// abort — exactly the model's failure semantics, at hardware speed.
func (w *Ctx) runTask(t *task) {
	for {
		w.taskWork = 0
		w.transferred = false
		w.eph.reset()
		w.ephSpans.reset()
		if w.war.Enabled() {
			w.war.Reset() // a task is a capsule: conflicts are intra-task
		}
		if w.faultThresh != 0 {
			if w.attempt(t) {
				w.replays++
				continue
			}
		} else {
			w.body(t)
		}
		if w.war.Enabled() {
			w.noteWARs(t)
		}
		return
	}
}

func (w *Ctx) body(t *task) {
	switch t.kind {
	case taskUser:
		w.rt.funcs[t.fn](w)
	case taskPfor:
		w.runPfor(t)
	case taskNop:
		w.Done()
	}
}

// attempt runs the body under a recover barrier that catches only the
// injected soft-fault sentinel; real panics propagate.
func (w *Ctx) attempt(t *task) (faulted bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == errSoftFault {
				faulted = true
				return
			}
			panic(r)
		}
	}()
	w.body(t)
	return false
}

// persistPoint commits the capsule boundary with the paper's one persistent
// write: the worker's capsule count, stored to its epoch word. On a durable
// region that word is in the file, and no syscall is made: kill -9 keeps
// every completed store (MAP_SHARED), and against a power cut only the
// MS_SYNC barriers at phase and run boundaries carry a guarantee.
func (w *Ctx) persistPoint() {
	w.persists.Add(1)
	epochAddr := w.rt.persistBase + pmem.Addr(w.id*w.rt.cfg.BlockWords)
	atomic.StoreUint64(&w.rt.mem[epochAddr], uint64(w.capsules))
	w.writes++
	if c := w.rt.crashAfter; c > 0 && w.rt.persistCtr.Add(1) >= c {
		crashNow()
	}
}

// noteWARs drains the tracker's per-task conflicts into the bounded log,
// formatted like the model machine's recordWAR so cross-engine runs compare
// line for line.
func (w *Ctx) noteWARs(t *task) {
	const maxLog = 64
	for _, v := range w.war.Violations() {
		if len(w.warLog) >= maxLog {
			return
		}
		name := "pfor"
		if t.kind == taskUser {
			name = w.rt.fnames[t.fn]
		}
		w.warLog = append(w.warLog, fmt.Sprintf("proc %d capsule %s: %s", w.id, name, v))
	}
}

// warRead/warWrite feed the tracker at block granularity; warReadSpan and
// warWriteSpan cover the bulk operations, touching each spanned block once.
// Callers guard with w.war.Enabled() to keep the fast path free of the
// address arithmetic.
func (w *Ctx) warRead(a pmem.Addr)  { w.war.OnRead(int(a) / w.rt.cfg.BlockWords) }
func (w *Ctx) warWrite(a pmem.Addr) { w.war.OnWrite(int(a) / w.rt.cfg.BlockWords) }

func (w *Ctx) warReadSpan(lo, hi pmem.Addr) { // addresses [lo, hi)
	b := pmem.Addr(w.rt.cfg.BlockWords)
	for blk := lo / b; blk <= (hi-1)/b; blk++ {
		w.war.OnRead(int(blk))
	}
}

func (w *Ctx) warWriteSpan(lo, hi pmem.Addr) { // addresses [lo, hi)
	b := pmem.Addr(w.rt.cfg.BlockWords)
	for blk := lo / b; blk <= (hi-1)/b; blk++ {
		w.war.OnWrite(int(blk))
	}
}

// spawn makes t available to thieves and wakes one parked worker, if any
// (see park). The deque ring grows on demand, so spawned work always lands
// in the owner's deque — no overflow spill, no lock on the spawn path, and
// with nobody parked one atomic load beyond the push.
func (w *Ctx) spawn(t *task) {
	w.dq.push(t)
	if w.rt.sleepers.n.Load() != 0 {
		w.rt.wakeOne(w.id)
	}
}

// resolve delivers one completion to j.
func (w *Ctx) resolve(j *join) {
	if j == nil {
		// A RunOnAll chain used Done instead of Halt; treat it as chain end.
		return
	}
	if j.pending.Add(-1) != 0 {
		return
	}
	cont := j.cont
	if cont == nil {
		w.rt.endRun() // root completion; the root join is not the worker's to free
		return
	}
	w.freeJoin(j)
	w.next = cont
}

// runPfor expands the balanced parallel-for tree.
// args: [body, lo, hi, grain, x0, x1].
func (w *Ctx) runPfor(t *task) {
	a := t.args
	lo, hi, grain := a[1], a[2], a[3]
	if int64(hi)-int64(lo) <= int64(grain) {
		leaf := w.newTask(taskUser, capsule.FuncID(a[0]), t.join)
		leaf.inline = [capsule.InlineArgs]uint64{lo, hi, a[4], a[5]}
		leaf.args = leaf.inline[:4]
		w.next = leaf
		return
	}
	mid := uint64((int64(lo) + int64(hi)) / 2)
	j := w.newJoin(w.newTask(taskNop, 0, t.join), 2)
	w.spawn(w.pforTask(j, a[0], lo, mid, grain, a[4], a[5]))
	w.next = w.pforTask(j, a[0], mid, hi, grain, a[4], a[5])
}

// pforTask returns a parallel-for node over [lo, hi) under j.
func (w *Ctx) pforTask(j *join, body, lo, hi, grain, x0, x1 uint64) *task {
	t := w.newTask(taskPfor, 0, j)
	t.inline = [capsule.InlineArgs]uint64{body, lo, hi, grain, x0, x1}
	t.args = t.inline[:]
	return t
}

// ---- capsule-visible operations ----

// Arg returns closure argument i.
func (w *Ctx) Arg(i int) uint64 { return w.cur.args[i] }

// NArgs returns the number of arguments of the current task.
func (w *Ctx) NArgs() int { return len(w.cur.args) }

// ProcID returns the executing worker's ID.
func (w *Ctx) ProcID() int { return w.id }

// NumProcs returns P.
func (w *Ctx) NumProcs() int { return w.rt.cfg.P }

// Rand returns per-worker pseudo-randomness.
func (w *Ctx) Rand() uint64 { return w.rng.Next() }

// Read loads the word at a.
func (w *Ctx) Read(a pmem.Addr) uint64 {
	w.rt.check(a)
	w.batch(1, &w.reads)
	if w.war.Enabled() {
		w.warRead(a)
	}
	return atomic.LoadUint64(&w.rt.mem[a])
}

// Write stores v at a.
func (w *Ctx) Write(a pmem.Addr, v uint64) {
	w.rt.check(a)
	w.batch(1, &w.writes)
	if w.war.Enabled() {
		w.warWrite(a)
	}
	atomic.StoreUint64(&w.rt.mem[a], v)
}

// CAM is compare-and-modify: the outcome is deliberately not returned,
// matching the model's only safe read-modify-write.
func (w *Ctx) CAM(a pmem.Addr, old, new uint64) {
	w.rt.check(a)
	w.batch(1, &w.writes)
	if w.war.Enabled() {
		w.warWrite(a)
	}
	// Test before CAS: a CAM never reports its outcome, so one that has
	// already lost need not take the cache line exclusive — most of a BFS
	// round's claims lose.
	p := &w.rt.mem[a]
	if atomic.LoadUint64(p) != old {
		return
	}
	atomic.CompareAndSwapUint64(p, old, new)
}

// Scratch returns n zeroed words of ephemeral memory: a capsule-local vector
// that dies with the capsule, like every buffer the arena hands out.
func (w *Ctx) Scratch(n int) []uint64 {
	s := w.eph.alloc(n)
	clear(s)
	return s
}

// ScratchSpans is Scratch for span vectors, such as Gather's.
func (w *Ctx) ScratchSpans(n int) [][2]int {
	s := w.ephSpans.alloc(n)
	clear(s)
	return s
}

// Slice returns base[lo,hi) in place: a capacity-clipped window onto the
// word memory, so no word moves and an append to it reallocates instead of
// running into base[hi]. The bounds check, fault draw, word count and WAR
// span are taken here, at the call, as for a copy. The window is read-only —
// a store through it would be an untracked persistent write — and valid until
// the capsule's control transfer, like the ephemeral memory a copy would use.
func (w *Ctx) Slice(base pmem.Addr, lo, hi int) []uint64 {
	if lo >= hi {
		return nil
	}
	win := w.window(base+pmem.Addr(lo), hi-lo)
	w.batch(int64(hi-lo), &w.reads)
	if w.war.Enabled() {
		w.warReadSpan(base+pmem.Addr(lo), base+pmem.Addr(hi))
	}
	return win
}

// window returns the n words at base, checked against the memory once and
// capacity-clipped: the range of Slice and WriteRange, and the array the
// batched accessors index into.
//
// Bulk accesses through a window use plain loads and stores: capsules
// exchange bulk data only through fork-join ordering (a reader runs strictly
// after the writer's join resolves), and every join/steal transition goes
// through sync/atomic, which carries the happens-before edge. Racing on
// individual words is the CAM idiom and stays on sequentially consistent
// single-word operations (Read, Write, CAM, and the atomic loads and CASes
// of GatherAt and CAMAt). This mirrors the model, where bulk block transfers
// are only well-defined between ordered capsules while racing word access
// is CAM territory.
func (w *Ctx) window(base pmem.Addr, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	w.rt.check(base)
	w.rt.check(base + pmem.Addr(n-1))
	end := base + pmem.Addr(n)
	return w.rt.mem[base:end:end]
}

// batch takes the bookkeeping of one batched access of k words at call
// time: one fault draw for the batch (1 − (1 − f)^k, as k single accesses
// would fault) and one counter update.
func (w *Ctx) batch(k int64, counter *int64) {
	if w.faultThresh != 0 {
		w.maybeFault(k)
	}
	*counter += k
	w.taskWork += k
}

// Gather appends the words of k spans of the n-word window at base to dst —
// the batched edge-read path of the graph workloads, where the spans are
// often 2-word offset pairs and short arc lists. The window is checked once,
// the spans against it in one pass that also sizes the batch, and the batch
// takes one fault draw and one counter update; spans of up to 8 words are
// copied by an inline loop, since a memmove call costs more than they do.
// ok is false, with nothing counted, when a span leaves the window. A nil dst
// is taken from ephemeral memory, sized to the batch.
func (w *Ctx) Gather(base pmem.Addr, n int, spans [][2]int, dst []uint64) (out []uint64, ok bool) {
	total := 0
	for _, s := range spans {
		if s[0] < 0 || s[1] > n || s[0] > s[1] {
			return nil, false
		}
		total += s[1] - s[0]
	}
	at := len(dst)
	if dst == nil {
		dst = w.eph.alloc(total)
	} else {
		dst = slices.Grow(dst, total)[:at+total]
	}
	if total == 0 {
		return dst, true
	}
	win := w.window(base, n)
	w.batch(int64(total), &w.reads)
	to := dst[at:]
	for _, s := range spans {
		src := win[s[0]:s[1]]
		if len(src) > 8 {
			copy(to, src)
		} else {
			t := to[:len(src)]
			for i, v := range src {
				t[i] = v
			}
		}
		to = to[len(src):]
	}
	if w.war.Enabled() {
		for _, s := range spans {
			if s[0] < s[1] {
				w.warReadSpan(base+pmem.Addr(s[0]), base+pmem.Addr(s[1]))
			}
		}
	}
	return dst, true
}

// GatherAt appends base[i] for every i of idx to dst: one indexed loop over
// the n-word window at base, one scaled fault draw for the batch. It is the
// scattered-read path of the graph kernels (a BFS leaf's claimant words,
// cc's labels of labels). ok is false when an index lies outside the window,
// for the caller to panic on. A nil dst is taken from ephemeral memory.
func (w *Ctx) GatherAt(base pmem.Addr, n int, idx []uint64, dst []uint64) (out []uint64, ok bool) {
	if len(idx) == 0 {
		return dst, true
	}
	win := w.window(base, n)
	w.batch(int64(len(idx)), &w.reads)
	at := len(dst)
	if dst == nil {
		dst = w.eph.alloc(len(idx))
	} else {
		dst = append(dst, idx...) // room for the values; overwritten below
	}
	vals := dst[at:][:len(idx)]
	for k, i := range idx {
		if i >= uint64(len(win)) {
			return nil, false
		}
		// Atomic like Read: a gathered word may be one another worker CAMs in
		// the same phase (the BFS frontier reads its claimant words back).
		vals[k] = atomic.LoadUint64(&win[i])
	}
	if w.war.Enabled() {
		for _, i := range idx {
			w.warRead(base + pmem.Addr(i))
		}
	}
	return dst, true
}

// Fold names the reduction FoldAt applies.
type Fold uint8

const (
	FoldMin Fold = iota // uint64 minimum
	FoldSum             // float64 addition on the words' bit patterns
	FoldOr              // uint64 bitwise or
)

// FoldAt reduces the words GatherAt would read for idx into acc instead of
// a buffer: segment s is the next lens[s] entries of idx, and each of its
// words is folded into acc[s] by op, in index order. It takes GatherAt's
// bookkeeping (one window check, one fault draw and counter update for
// len(idx) words, the same atomic loads and per-index WAR read marks). Each
// segment has one accumulator: a sum stays bit-exact against the sequential
// loop, and at the scan leaves' few words a segment a min with two measured
// slower than with one. The lens must sum to len(idx) and len(acc) must
// equal len(lens), as the caller checks. ok is false when an index lies
// outside the window; the segments before it have been folded.
func (w *Ctx) FoldAt(base pmem.Addr, n int, op Fold, idx, lens, acc []uint64) (ok bool) {
	if len(idx) == 0 {
		return true
	}
	win := w.window(base, n)
	w.batch(int64(len(idx)), &w.reads)
	if op == FoldOr {
		ok = foldOrWindow(win, idx, lens, acc)
	} else {
		ok = foldWindow(win, op, idx, lens, acc)
	}
	if !ok {
		return false
	}
	if w.war.Enabled() {
		for _, i := range idx {
			w.warRead(base + pmem.Addr(i))
		}
	}
	return true
}

// foldWindow is FoldAt's loop, kept apart from its bookkeeping so the
// per-index loops keep their cursors in registers: one loop per op, one
// accumulator per segment.
func foldWindow(win []uint64, op Fold, idx, lens, acc []uint64) bool {
	if op == FoldSum {
		for s, l := range lens {
			sum := math.Float64frombits(acc[s])
			for _, i := range idx[:l] {
				if i >= uint64(len(win)) {
					return false
				}
				sum += math.Float64frombits(atomic.LoadUint64(&win[i]))
			}
			idx = idx[l:]
			acc[s] = math.Float64bits(sum)
		}
		return true
	}
	for s, l := range lens {
		m := acc[s]
		for _, i := range idx[:l] {
			if i >= uint64(len(win)) {
				return false
			}
			m = min(m, atomic.LoadUint64(&win[i]))
		}
		idx = idx[l:]
		acc[s] = m
	}
	return true
}

// foldOrWindow is foldWindow for FoldOr, a function of its own so that
// the min and sum loops keep their registers.
func foldOrWindow(win []uint64, idx, lens, acc []uint64) bool {
	for s, l := range lens {
		m := acc[s]
		for _, i := range idx[:l] {
			if i >= uint64(len(win)) {
				return false
			}
			m |= atomic.LoadUint64(&win[i])
		}
		idx = idx[l:]
		acc[s] = m
	}
	return true
}

// CAMAt is CAM over the n-word window at base, once per index: base[idx[k]]
// becomes vals[k] where it still holds old. Each word is tested before its
// CAS, as CAM does, so a claim that has already lost never takes the cache
// line exclusive. The window is checked once and the batch takes one fault
// draw and one counter update, at the call. ok is false when an index lies
// outside the window; the claims before it have landed.
func (w *Ctx) CAMAt(base pmem.Addr, n int, idx []uint64, old uint64, vals []uint64) (ok bool) {
	if len(idx) == 0 {
		return true
	}
	win := w.window(base, n)
	w.batch(int64(len(idx)), &w.writes)
	if w.war.Enabled() {
		for _, i := range idx {
			w.warWrite(base + pmem.Addr(i))
		}
	}
	vals = vals[:len(idx)]
	for k, i := range idx {
		if i >= uint64(len(win)) {
			return false
		}
		p := &win[i]
		if atomic.LoadUint64(p) == old {
			atomic.CompareAndSwapUint64(p, old, vals[k])
		}
	}
	return true
}

// ScatterAt stores vals[k] at base[idx[k]] for every k, over the n-word
// window at base, with one window check, fault draw and counter update, and
// plain stores — the words a batch writes are read only by capsules ordered
// after it by a join. ok is false when an index lies outside the window; the
// stores before it have landed.
func (w *Ctx) ScatterAt(base pmem.Addr, n int, idx []uint64, vals []uint64) (ok bool) {
	if len(idx) == 0 {
		return true
	}
	win := w.window(base, n)
	w.batch(int64(len(idx)), &w.writes)
	if w.war.Enabled() {
		for _, i := range idx {
			w.warWrite(base + pmem.Addr(i))
		}
	}
	vals = vals[:len(idx)]
	for k, i := range idx {
		if i >= uint64(len(win)) {
			return false
		}
		win[i] = vals[k]
	}
	return true
}

// WriteRange writes vals over base[lo,hi).
func (w *Ctx) WriteRange(base pmem.Addr, lo, hi int, vals []uint64) {
	if hi-lo != len(vals) {
		panic("native: WriteRange length mismatch")
	}
	if lo >= hi {
		return
	}
	win := w.window(base+pmem.Addr(lo), hi-lo)
	w.batch(int64(hi-lo), &w.writes)
	copy(win, vals)
	if w.war.Enabled() {
		w.warWriteSpan(base+pmem.Addr(lo), base+pmem.Addr(hi))
	}
}

// ---- control transfers ----

// Done finishes the current task, delivering completion to its join.
func (w *Ctx) Done() {
	w.transferred = true
	w.resolve(w.cur.join)
}

// Halt ends this worker's current chain (RunOnAll mode).
func (w *Ctx) Halt() {
	w.transferred = true
	w.next = nil
}

// Then continues the current chain with fid(args...), preserving the join.
// A Then from a root-chain task stays on the root chain (but records no new
// step: it is the same chain position continuing under a new closure).
func (w *Ctx) Then(fid capsule.FuncID, args capsule.Args) {
	w.transferred = true
	t := w.callTask(fid, &args, w.cur.join)
	t.chainTail, t.phase = w.cur.chainTail, w.cur.phase
	w.next = t
}

// SeqBuf returns the worker's step vectors at length n for the capsule's Seq
// to fill. Seq copies every step into its tasks before it returns, so the
// next capsule on this worker may lend them again.
func (w *Ctx) SeqBuf(n int) ([]capsule.FuncID, []capsule.Args) {
	if cap(w.seqFids) < n {
		w.seqFids = make([]capsule.FuncID, n)
		w.seqArgs = make([]capsule.Args, n)
	}
	return w.seqFids[:n], w.seqArgs[:n]
}

// Seq chains the calls so each runs after the previous one's entire
// computation (including anything it forks) completes; the last one's
// completion goes to the current task's join. A Seq issued from the chain
// tail — the root, or the last step of the previous chain — replaces the
// whole remaining spine, so it records its steps in the durable region
// (latest chain wins: a driver that re-Seqs each round overwrites the
// previous record) and tags each step with its phase index so step starts
// become durable commits; the new last step becomes the new tail. A Seq
// from any other task is a sub-chain (steps after it live in join cells the
// region cannot see) and records nothing.
func (w *Ctx) Seq(fids []capsule.FuncID, argss []capsule.Args) {
	w.transferred = true
	if len(fids) == 0 {
		w.resolve(w.cur.join)
		return
	}
	chain := w.cur.chainTail
	if chain && w.rt.region != nil {
		w.rt.recordChain(fids, argss)
	}
	j := w.cur.join
	for i := len(fids) - 1; i >= 1; i-- {
		st := w.callTask(fids[i], &argss[i], j)
		if chain {
			st.chainTail = i == len(fids)-1
			st.phase = int32(i)
		}
		j = w.newJoin(st, 1)
	}
	first := w.callTask(fids[0], &argss[0], j)
	first.chainTail = chain && len(fids) == 1
	w.next = first
}

// Fork runs left and right in parallel. When both complete, the join call
// runs (hasJoin) or completion passes straight through (plain fork); either
// way the current task's join eventually receives the completion. Forked
// children leave the root chain: their interleaving is scheduler-dependent,
// so recovery re-executes them from the enclosing chain step.
func (w *Ctx) Fork(lf capsule.FuncID, la capsule.Args, rf capsule.FuncID, ra capsule.Args,
	jf capsule.FuncID, ja capsule.Args, hasJoin bool) {

	w.transferred = true
	var cont *task
	if hasJoin {
		cont = w.callTask(jf, &ja, w.cur.join)
	} else {
		cont = w.newTask(taskNop, 0, w.cur.join)
	}
	j := w.newJoin(cont, 2)
	w.spawn(w.callTask(lf, &la, j))
	w.next = w.callTask(rf, &ra, j)
}

// ParallelFor runs body over [lo, hi) as a balanced tree with at most grain
// indices per leaf; body receives [lo, hi, a0, a1] and must end with Done.
func (w *Ctx) ParallelFor(body capsule.FuncID, lo, hi, grain int, a0, a1 uint64) {
	w.transferred = true
	grain = max(grain, 1)
	w.next = w.pforTask(w.cur.join, uint64(body), uint64(lo), uint64(hi), uint64(grain), a0, a1)
}
