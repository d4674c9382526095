// Package machine implements the (Parallel-)PM model machine: P virtual
// processors, each with ephemeral memory and registers lost on faults,
// sharing one persistent memory, with per-processor restart pointers and a
// capsule run loop that replays the active capsule after soft faults and
// reports hard faults to the liveness oracle.
//
// Cost accounting follows the paper exactly: every persistent-memory block
// transfer costs one unit and is a potential fault point; all other
// instructions are free. Virtual processors run as goroutines, but no
// scheduling decision depends on Go's runtime — all coordination happens
// through the modeled persistent memory.
package machine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/capsule"
	"repro/internal/fault"
	"repro/internal/pmem"
	"repro/internal/rng"
	"repro/internal/stats"
)

// HaltWord is the restart-pointer value that stops a processor's run loop.
const HaltWord = uint64(math.MaxUint64)

// NumCtrl is the number of general control words reserved after the restart
// pointers (used by the scheduler for the done flag, root result, etc.).
const NumCtrl = 8

// StealRecordWords is the size of a steal record in words; the scheduler's
// record layout (deque.RecordWords) mirrors it.
const StealRecordWords = 4

// stealBodyWords is the closure budget of one steal-arena half — an upper
// bound on the words one steal attempt (runSteal through the next runSteal)
// allocates. The worst chain (steal -> help -> inspect -> grabLocal -> help
// -> takenLocal-miss) stays under 64 words; the slack guards refactors, and
// Alloc panics loudly if an attempt ever crosses a half boundary.
const stealBodyWords = 192

// Config describes a machine instance.
type Config struct {
	P          int // number of processors
	MemWords   int // persistent memory size in words
	BlockWords int // block size B in words
	EphWords   int // ephemeral memory size M in words, per processor
	PoolWords  int // closure-pool size per processor, in words
	Seed       uint64
	// Check enables the write-after-read conflict checker and ephemeral
	// well-formedness checking. StrictCheck additionally panics on the
	// first WAR violation (useful in tests).
	Check       bool
	StrictCheck bool
	Injector    fault.Injector
}

func (c *Config) fill() {
	if c.P <= 0 {
		c.P = 1
	}
	if c.BlockWords <= 0 {
		c.BlockWords = 8
	}
	if c.EphWords <= 0 {
		c.EphWords = 1 << 12
	}
	if c.PoolWords <= 0 {
		c.PoolWords = 1 << 20
	}
	if c.MemWords <= 0 {
		c.MemWords = 1 + (c.P + NumCtrl) + c.P*c.PoolWords + (1 << 20)
	}
	if c.Injector == nil {
		c.Injector = fault.NoFaults{}
	}
}

// Machine is a Parallel-PM instance.
type Machine struct {
	cfg      Config
	Mem      *pmem.Mem
	Registry *capsule.Registry
	Stats    *stats.Counters
	Live     *fault.Liveness

	procs    []*Proc
	poolBase []pmem.Addr // per-proc pool start
	poolEnd  []pmem.Addr

	// Steal-arena geometry, identical for every processor: each half opens
	// with stealRecArea words (the block-aligned steal-record slot) followed
	// by the closure region, stealHalfSize words in total.
	stealRecArea  pmem.Addr
	stealHalfSize pmem.Addr
	setupCur      []pmem.Addr // setup-time allocation cursor per pool
	setupMark     []pmem.Addr // setupCur after New: where ResetRun rewinds to
	setupHigh     []pmem.Addr // high-water of setupCur: ResetRun's zero extent
	heapCur       pmem.Addr   // setup-time cursor for the shared user heap
	heapEnd       pmem.Addr

	// Closure-pool generation recycling (see gens.go). Geometry is frozen at
	// first Run/RunProc; genHigh tracks per-(pool, region) allocation
	// high-water marks so claims zero only dirtied words, genLastW the epoch
	// of each region's newest allocation (the reuse-margin input), and
	// genCur each pool's claim frontier (the region its cursor last entered).
	genOnce  sync.Once
	genBase  []pmem.Addr
	genSize  []pmem.Addr
	genHigh  [][PoolGens]atomic.Int64
	genLastW [][PoolGens]atomic.Int64
	genCur   []atomic.Int64

	// warViolations aggregates conflicts found by the per-proc trackers.
	warMu         sync.Mutex
	warViolations []string

	// schedFid caches which function IDs belong to the scheduler / fork-join
	// protocol (by registered-name prefix), for work attribution.
	schedMu  sync.Mutex
	schedFid map[capsule.FuncID]bool

	// fidWork accumulates transfers per capsule function, for profiling and
	// the experiment harness.
	fidWork sync.Map // capsule.FuncID -> *atomic.Int64
}

// noteFidWork accumulates n transfers against fid.
func (m *Machine) noteFidWork(fid capsule.FuncID, n int64) {
	v, ok := m.fidWork.Load(fid)
	if !ok {
		v, _ = m.fidWork.LoadOrStore(fid, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(n)
}

// WorkByCapsule returns total transfers per registered capsule function
// name, a profiling view over the whole run.
func (m *Machine) WorkByCapsule() map[string]int64 {
	out := map[string]int64{}
	m.fidWork.Range(func(k, v any) bool {
		out[m.Registry.Name(k.(capsule.FuncID))] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// isSchedCapsule reports whether fid is scheduler or fork-join protocol code
// (registered under "sched/" or "forkjoin/").
func (m *Machine) isSchedCapsule(fid capsule.FuncID) bool {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	if m.schedFid == nil {
		m.schedFid = map[capsule.FuncID]bool{}
	}
	v, ok := m.schedFid[fid]
	if !ok {
		name := m.Registry.Name(fid)
		v = strings.HasPrefix(name, "sched/") || strings.HasPrefix(name, "forkjoin/")
		m.schedFid[fid] = v
	}
	return v
}

// New builds a machine. The persistent memory layout is:
//
//	word 0                      reserved (Nil)
//	words 1 .. P                restart pointers, one per processor
//	words 1+P .. 1+P+NumCtrl-1  control words (scheduler done flag, ...)
//	then, block-aligned:        P closure pools of PoolWords each
//	then:                       shared user heap until MemWords
func New(cfg Config) *Machine {
	cfg.fill()
	m := &Machine{
		cfg:      cfg,
		Mem:      pmem.New(cfg.MemWords, cfg.BlockWords),
		Registry: capsule.NewRegistry(),
		Stats:    stats.New(cfg.P),
		Live:     fault.NewLiveness(cfg.P),
	}
	m.stealRecArea = m.alignBlock(StealRecordWords)
	m.stealHalfSize = m.stealRecArea + m.alignBlock(stealBodyWords)
	cur := pmem.Addr(1 + cfg.P + NumCtrl)
	cur = m.alignBlock(cur)
	m.poolBase = make([]pmem.Addr, cfg.P)
	m.poolEnd = make([]pmem.Addr, cfg.P)
	m.setupCur = make([]pmem.Addr, cfg.P)
	for p := 0; p < cfg.P; p++ {
		m.poolBase[p] = cur
		m.setupCur[p] = cur
		cur += pmem.Addr(cfg.PoolWords)
		m.poolEnd[p] = cur
	}
	m.genBase = make([]pmem.Addr, cfg.P)
	m.genSize = make([]pmem.Addr, cfg.P)
	m.genHigh = make([][PoolGens]atomic.Int64, cfg.P)
	m.genLastW = make([][PoolGens]atomic.Int64, cfg.P)
	m.genCur = make([]atomic.Int64, cfg.P)
	m.heapCur = m.alignBlock(cur)
	m.heapEnd = pmem.Addr(cfg.MemWords)
	if m.heapCur >= m.heapEnd {
		panic("machine: memory too small for pools; raise MemWords")
	}
	sm := rng.NewSplitMix64(cfg.Seed)
	m.procs = make([]*Proc, cfg.P)
	for p := 0; p < cfg.P; p++ {
		m.procs[p] = newProc(m, p, sm.Next())
	}
	// All restart pointers begin halted; the harness installs roots.
	for p := 0; p < cfg.P; p++ {
		m.Mem.Write(m.RestartAddr(p), HaltWord)
	}
	// Everything below the marks (InstallSelf slots, steal arenas) is
	// permanent; everything above is per-run state ResetRun may reclaim.
	m.setupMark = append([]pmem.Addr(nil), m.setupCur...)
	m.setupHigh = append([]pmem.Addr(nil), m.setupCur...)
	return m
}

func (m *Machine) alignBlock(a pmem.Addr) pmem.Addr {
	b := pmem.Addr(m.cfg.BlockWords)
	return (a + b - 1) / b * b
}

// stealArenaHalf resolves which processor's steal arena, and which of its
// two halves, contains address a. O(1): pools are contiguous and equal-sized,
// so the owning processor follows from address arithmetic — this runs on
// every Alloc and must not scan.
func (m *Machine) stealArenaHalf(a pmem.Addr) (proc, half int, ok bool) {
	if a < m.poolBase[0] || a >= m.poolEnd[m.cfg.P-1] {
		return 0, 0, false
	}
	q := int((a - m.poolBase[0]) / pmem.Addr(m.cfg.PoolWords))
	p := m.procs[q]
	if a < p.stealHalf[0] || a >= p.stealHalf[1]+m.stealHalfSize {
		return 0, 0, false
	}
	if a < p.stealHalf[1] {
		return q, 0, true
	}
	return q, 1, true
}

// P returns the number of processors.
func (m *Machine) P() int { return m.cfg.P }

// BlockWords returns B.
func (m *Machine) BlockWords() int { return m.cfg.BlockWords }

// EphWords returns M.
func (m *Machine) EphWords() int { return m.cfg.EphWords }

// RestartAddr returns the address of processor p's restart pointer.
func (m *Machine) RestartAddr(p int) pmem.Addr { return pmem.Addr(1 + p) }

// CtrlAddr returns the address of general control word i.
func (m *Machine) CtrlAddr(i int) pmem.Addr {
	if i < 0 || i >= NumCtrl {
		panic("machine: control word index out of range")
	}
	return pmem.Addr(1 + m.cfg.P + i)
}

// PoolRange returns processor p's closure-pool bounds [base, end).
func (m *Machine) PoolRange(p int) (pmem.Addr, pmem.Addr) {
	return m.poolBase[p], m.poolEnd[p]
}

// HeapAlloc reserves n words of the shared user heap at setup time (zero
// cost; not usable from capsule code).
func (m *Machine) HeapAlloc(n int) pmem.Addr {
	a := m.heapCur
	m.heapCur += pmem.Addr(n)
	if m.heapCur > m.heapEnd {
		panic(fmt.Sprintf("machine: user heap exhausted (%d words requested)", n))
	}
	return a
}

// HeapAllocBlocks reserves n words starting at a block boundary.
func (m *Machine) HeapAllocBlocks(n int) pmem.Addr {
	m.heapCur = m.alignBlock(m.heapCur)
	return m.HeapAlloc(n)
}

// BuildClosure writes a closure into processor pool's setup region at setup
// time and returns its base. The closure's allocation base is the pool cursor
// after the closure itself, so a capsule chain started from it allocates the
// rest of the pool.
func (m *Machine) BuildClosure(pool int, fid capsule.FuncID, cont pmem.Addr, args ...uint64) pmem.Addr {
	n := capsule.HdrWords + len(args)
	base := m.setupCur[pool]
	m.setupCur[pool] += pmem.Addr(n)
	if m.setupCur[pool] > m.poolEnd[pool] {
		panic("machine: pool exhausted during setup")
	}
	if m.setupCur[pool] > m.setupHigh[pool] {
		m.setupHigh[pool] = m.setupCur[pool]
	}
	m.Mem.Write(base, capsule.PackHeader(fid, n))
	m.Mem.Write(base+1, uint64(m.setupCur[pool]))
	m.Mem.Write(base+2, uint64(cont))
	for i, v := range args {
		m.Mem.Write(base+pmem.Addr(capsule.HdrWords+i), v)
	}
	return base
}

// SetRestart installs a root closure (or HaltWord) for processor p at setup
// time.
func (m *Machine) SetRestart(p int, closure pmem.Addr) {
	m.Mem.Write(m.RestartAddr(p), uint64(closure))
}

// Run starts all processors and waits for every one of them to halt or die.
// Halt latches per-processor haltAfter flags; clearing them here is what
// lets a machine whose computation finished be started again (dead
// processors stay dead — hard faults are permanent in the model).
func (m *Machine) Run() {
	m.freezeGens()
	var wg sync.WaitGroup
	for _, p := range m.procs {
		p.haltAfter = false
		wg.Add(1)
		go func(pr *Proc) {
			defer wg.Done()
			pr.loop()
		}(p)
	}
	wg.Wait()
}

// RunProc runs a single processor to halt on the calling goroutine —
// convenient for single-processor experiments and tests.
func (m *Machine) RunProc(p int) {
	m.freezeGens()
	m.procs[p].haltAfter = false
	m.procs[p].loop()
}

// Proc returns processor p (for tests and harnesses).
func (m *Machine) Proc(p int) *Proc { return m.procs[p] }

func (m *Machine) recordWAR(proc int, name string, v fmt.Stringer) {
	m.warMu.Lock()
	m.warViolations = append(m.warViolations,
		fmt.Sprintf("proc %d capsule %s: %s", proc, name, v))
	m.warMu.Unlock()
	if m.cfg.StrictCheck {
		panic("machine: " + m.warViolations[len(m.warViolations)-1])
	}
}

// WARViolations returns the conflicts detected so far (Check mode only).
func (m *Machine) WARViolations() []string {
	m.warMu.Lock()
	defer m.warMu.Unlock()
	return append([]string(nil), m.warViolations...)
}

// WellFormedViolations sums ephemeral read-before-write violations across
// processors (Check mode only).
func (m *Machine) WellFormedViolations() int {
	n := 0
	for _, p := range m.procs {
		n += p.eph.Violations
	}
	return n
}
