package machine

import (
	"fmt"

	"repro/internal/capsule"
	"repro/internal/ephemeral"
	"repro/internal/fault"
	"repro/internal/pmem"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/warcheck"
)

// sentinel panic values used to unwind a capsule on injected faults.
type softFaultPanic struct{}
type hardFaultPanic struct{}

// Proc is one virtual processor. It implements capsule.Env. A Proc is driven
// by exactly one goroutine; only the shared persistent memory is touched
// concurrently.
type Proc struct {
	m   *Machine
	id  int
	ctr *stats.ProcCounters
	eph *ephemeral.Mem
	war *warcheck.Tracker
	rnd *rng.Xoshiro256

	// Per-capsule volatile state, reset on every (re)start.
	base      pmem.Addr
	fid       capsule.FuncID
	nargs     int
	args      [capsule.MaxArgs]uint64
	cont      pmem.Addr
	allocPtr  pmem.Addr
	capsWork  int64
	installed bool
	dead      bool
	haltAfter bool

	// selfSlots are the two fixed closure buffers used by InstallSelf
	// (the paper's two-closure swap for persistent loops, §4.1).
	selfSlots [2]pmem.Addr

	// stealSave and stealHalf implement the bounded steal-scratch arena (see
	// capsule.Env.StealScratch): stealSave parks the durable chain cursor
	// while the scheduler's steal loop runs; stealHalf are the two
	// alternately recycled halves the loop's closures live in. Each half
	// starts with a block-aligned steal-record slot; closures begin at
	// stealHalf[i] + m.stealRecArea.
	stealSave pmem.Addr
	stealHalf [2]pmem.Addr

	lastBase pmem.Addr // for distinguishing restarts from fresh capsules
	retrying bool
}

func newProc(m *Machine, id int, seed uint64) *Proc {
	p := &Proc{
		m:   m,
		id:  id,
		ctr: &m.Stats.Procs[id],
		eph: ephemeral.New(m.cfg.EphWords, m.cfg.Check),
		war: warcheck.New(m.cfg.Check),
		rnd: rng.NewXoshiro256(seed),
	}
	// Reserve the two InstallSelf slots at the front of this proc's pool.
	p.selfSlots[0] = m.setupCur[id]
	m.setupCur[id] += capsule.MaxWords
	p.selfSlots[1] = m.setupCur[id]
	m.setupCur[id] += capsule.MaxWords
	// Reserve the steal-scratch arena: the parked-cursor word, then two
	// block-aligned halves of stealHalfSize words each.
	p.stealSave = m.setupCur[id]
	p.stealHalf[0] = m.alignBlock(p.stealSave + 1)
	p.stealHalf[1] = p.stealHalf[0] + m.stealHalfSize
	m.setupCur[id] = p.stealHalf[1] + m.stealHalfSize
	if m.setupCur[id] > m.poolEnd[id] {
		panic(fmt.Sprintf("machine: PoolWords (%d) too small for the InstallSelf slots and steal arena; need at least %d",
			m.cfg.PoolWords, m.setupCur[id]-m.poolBase[id]))
	}
	return p
}

// loop is the processor's top-level run loop: load restart pointer, run the
// capsule it designates, repeat; a soft fault replays, a hard fault kills.
// A dead processor returns at once: hard faults are permanent, and an
// injector reports one only at the access it strikes.
func (p *Proc) loop() {
	for !p.haltAfter && !p.dead {
		rp, ok := p.loadRestart()
		if !ok {
			continue // a fault on the restart load itself: retry, unless hard
		}
		if rp == HaltWord {
			return
		}
		p.runCapsule(pmem.Addr(rp))
	}
}

// loadRestart reads this processor's restart pointer. It is a fault point
// and a unit-cost read, like any persistent access. Returns ok=false if a
// soft fault hit (caller retries) — unless the fault was hard.
func (p *Proc) loadRestart() (v uint64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case softFaultPanic:
				p.noteSoftFault()
				ok = false
			case hardFaultPanic:
				p.noteHardFault()
				ok = false
			default:
				panic(r)
			}
		}
	}()
	p.faultPoint()
	p.ctr.ExtReads.Add(1)
	return p.m.Mem.Read(p.m.RestartAddr(p.id)), true
}

// runCapsule executes the closure at base once, handling fault unwinds.
func (p *Proc) runCapsule(base pmem.Addr) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case softFaultPanic:
				p.noteSoftFault()
			case hardFaultPanic:
				p.noteHardFault()
			default:
				panic(r)
			}
		}
	}()

	if base == p.lastBase && p.retrying {
		p.ctr.Restarts.Add(1)
	} else {
		p.ctr.Capsules.Add(1)
	}
	p.lastBase = base
	p.retrying = true

	p.beginCapsule(base)
	fn := p.m.Registry.Lookup(p.fid)
	if fn == nil {
		panic(fmt.Sprintf("machine: proc %d: closure at %d has unknown function id %d", p.id, base, p.fid))
	}
	fn(p)
	if !p.installed {
		panic(fmt.Sprintf("machine: proc %d: capsule %s returned without installing a successor",
			p.id, p.m.Registry.Name(p.fid)))
	}
	p.ctr.NoteCapsuleWork(p.capsWork)
	p.m.noteFidWork(p.fid, p.capsWork)
	if !p.m.isSchedCapsule(p.fid) {
		// Attribute transfers in algorithm capsules separately: the Section
		// 7 theorems bound W over algorithm transfers; scheduler-protocol
		// transfers are the (constant-per-operation) overhead the Section 6
		// analysis accounts for in the time bound.
		p.ctr.UserWork.Add(p.capsWork)
	}
	p.retrying = false
}

// beginCapsule loads the closure at base (charging the constant capsule-start
// cost) and resets per-capsule volatile state.
func (p *Proc) beginCapsule(base pmem.Addr) {
	p.base = base
	p.capsWork = 0
	p.installed = false
	p.war.Reset()
	// Well-formedness (first ephemeral access must be a write) is a
	// per-capsule property; reset the init marks but keep contents.
	p.eph.ResetMarks()

	// Read the closure. A closure spans at most a couple of blocks; charge
	// one transfer per spanned block, all fault points.
	p.faultPoint()
	hdr := p.m.Mem.Read(base)
	p.ctr.ExtReads.Add(1)
	p.capsWork++
	fid, n := capsule.UnpackHeader(hdr)
	if n < capsule.HdrWords || n > capsule.MaxWords {
		panic(fmt.Sprintf("machine: proc %d: corrupt closure header at %d (%#x)", p.id, base, hdr))
	}
	p.fid = fid
	p.nargs = n - capsule.HdrWords
	p.allocPtr = pmem.Addr(p.m.Mem.Read(base + 1))
	p.cont = pmem.Addr(p.m.Mem.Read(base + 2))
	for i := 0; i < p.nargs; i++ {
		p.args[i] = p.m.Mem.Read(base + pmem.Addr(capsule.HdrWords+i))
	}
	// Charge the extra blocks if the closure spans more than one.
	b := p.m.cfg.BlockWords
	extra := int(base+pmem.Addr(n-1))/b - int(base)/b
	if extra > 0 {
		p.ctr.ExtReads.Add(int64(extra))
		p.capsWork += int64(extra)
	}
}

func (p *Proc) noteSoftFault() {
	p.ctr.SoftFaults.Add(1)
	p.eph.Clear()
}

func (p *Proc) noteHardFault() {
	p.dead = true
	p.ctr.HardFaulted.Store(true)
	p.m.Live.MarkDead(p.id)
}

// faultPoint consults the injector; it precedes every persistent access.
func (p *Proc) faultPoint() {
	switch p.m.cfg.Injector.At(p.id) {
	case fault.Soft:
		panic(softFaultPanic{})
	case fault.Hard:
		panic(hardFaultPanic{})
	case fault.None:
	}
}

// Dead reports whether this processor hard-faulted.
func (p *Proc) Dead() bool { return p.dead }
