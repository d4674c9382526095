// Package capsule defines the building blocks of fault-tolerant execution in
// the PM model: capsules, closures, and the environment interface capsule
// code runs against.
//
// A capsule is a maximal sequence of instructions executed while the
// processor's restart pointer holds one value. Its state lives in a closure
// in persistent memory — an instruction pointer (here: a registered function
// ID), an allocation base, a continuation pointer, and arguments. On a soft
// fault the processor re-reads its restart pointer and re-runs the closure
// from scratch; write-after-read conflict-free capsules make this replay
// invisible (Theorem 3.1/5.1).
//
// Closure layout in persistent memory (word offsets from the base address):
//
//	+0  header: function ID (low 32 bits) | closure length in words (high 32)
//	+1  allocation base for the running capsule's bump allocator
//	+2  continuation: base address of another closure, or 0
//	+3… arguments
//
// The closure is immutable once installed, except for designated result slots
// written by callees (the paper's persistent-call convention): the writer and
// the reader are in different capsules, so no write-after-read conflict
// arises.
package capsule

import (
	"fmt"

	"repro/internal/pmem"
)

// FuncID identifies a registered capsule function — the model's "instruction
// pointer". IDs are dense small integers assigned by a Registry.
type FuncID uint32

// Header field layout within closure word 0.
const (
	// HdrWords is the number of bookkeeping words at the start of a closure.
	HdrWords = 3
	// MaxArgs bounds the arguments cached by the run loop at capsule start.
	MaxArgs = 29
	// MaxWords is the largest closure, in words.
	MaxWords = HdrWords + MaxArgs
)

// InlineArgs is how many argument words an Args holds without a heap slice:
// enough for every parallel-for node and every graph-kernel call.
const InlineArgs = 6

// Args is a closure's argument list carried by value: up to InlineArgs words
// inline, a heap slice beyond that. Passed through an interface call it is
// copied, not escaped, so handing a successor its arguments allocates
// nothing. The zero value is the empty list.
type Args struct {
	n      int
	inline [InlineArgs]uint64
	spill  []uint64 // all n words once n > InlineArgs; copies share it, as slices do
}

// ArgsOf packs ws into an Args.
func ArgsOf(ws ...uint64) Args {
	var a Args
	for _, w := range ws {
		a.Append(w)
	}
	return a
}

// Append adds one word, moving the list to the heap past InlineArgs words.
func (a *Args) Append(w uint64) {
	switch {
	case a.n < InlineArgs:
		a.inline[a.n] = w
	case a.spill == nil:
		a.spill = append(append(make([]uint64, 0, 4*InlineArgs), a.inline[:]...), w)
	default:
		a.spill = append(a.spill, w)
	}
	a.n++
}

// Words returns the words as a slice aliasing a.
func (a *Args) Words() []uint64 {
	if a.spill != nil {
		return a.spill
	}
	return a.inline[:a.n]
}

// Into returns the words without aliasing a itself: copied into dst when
// they fit inline, else the spill slice, which the caller must not write.
func (a *Args) Into(dst *[InlineArgs]uint64) []uint64 {
	if a.spill != nil {
		return a.spill
	}
	*dst = a.inline
	return dst[:a.n]
}

// PackHeader builds closure word 0 from a function ID and total word count.
func PackHeader(fid FuncID, nwords int) uint64 {
	if nwords < HdrWords || nwords > MaxWords {
		panic(fmt.Sprintf("capsule: closure of %d words out of range", nwords))
	}
	return uint64(fid) | uint64(nwords)<<32
}

// UnpackHeader splits closure word 0.
func UnpackHeader(h uint64) (FuncID, int) {
	return FuncID(h & 0xffffffff), int(h >> 32)
}

// Func is the body of a capsule. It must be deterministic in the closure
// contents and the persistent memory it reads (Env.Rand is the one sanctioned
// exception, for capsules that write nothing but helper CAMs), and must end
// by installing a successor via one of the Env install methods, or by calling
// Env.Halt.
type Func func(Env)

// Env is the machine interface visible to capsule code. Every method that
// touches persistent memory is a potential fault point and is charged one
// unit of cost per block transferred; everything else is free, matching the
// model's cost accounting.
type Env interface {
	// Read performs an external read of the word at a.
	Read(a pmem.Addr) uint64
	// Write performs an external write of the word at a.
	Write(a pmem.Addr, v uint64)
	// ReadBlock reads the whole block containing a into dst (one transfer).
	ReadBlock(a pmem.Addr, dst []uint64) pmem.Addr
	// WriteBlock writes src over the block containing a (one transfer).
	WriteBlock(a pmem.Addr, src []uint64) pmem.Addr
	// CAM is a compare-and-modify: a CAS whose outcome is not observable by
	// the capsule, the only safe read-modify-write under faults (Section 5).
	CAM(a pmem.Addr, old, new uint64)
	// CAS is the unsafe-under-faults primitive, provided only for the
	// ablation experiments that demonstrate why the scheduler must not use
	// it. Fault-tolerant code must use CAM.
	CAS(a pmem.Addr, old, new uint64) bool

	// Base returns the current closure's base address.
	Base() pmem.Addr
	// Arg returns argument i, cached from the closure at capsule start
	// (charged as part of the constant capsule-start cost).
	Arg(i int) uint64
	// NArgs returns the number of arguments in the current closure.
	NArgs() int
	// Cont returns the current closure's continuation pointer.
	Cont() pmem.Addr

	// Alloc bumps the capsule's deterministic allocator by n words. Repeat
	// executions of the capsule return the same addresses in the same order.
	Alloc(n int) pmem.Addr
	// NewClosure allocates and writes a closure for fn with the given
	// continuation and arguments, returning its base.
	NewClosure(fn FuncID, cont pmem.Addr, args ...uint64) pmem.Addr

	// Install writes the restart pointer, ending this capsule. It first
	// patches the successor closure's allocation base so the chain's bump
	// allocator continues past everything this capsule allocated. No
	// persistent access may follow in the same capsule body.
	Install(next pmem.Addr)
	// TakeOver installs a closure WITHOUT re-homing its allocation base;
	// required when resuming a hard-faulted processor's active capsule,
	// whose replayed allocations must land at the victim's addresses.
	TakeOver(next pmem.Addr)
	// InstallSelf re-installs the current closure with updated arguments —
	// the tail-call / persistent-loop idiom (two-closure swap per §4.1).
	InstallSelf(args ...uint64)
	// Adopt copies the (immutable) closure at job into this processor's
	// allocation chain, fixing up its allocation base, and installs the
	// copy. This is how the scheduler jumps to a popped or stolen thread.
	Adopt(job pmem.Addr)
	// Halt ends this processor's run loop after the current capsule.
	Halt()

	// StealScratch redirects the chain's bump allocator into the executing
	// processor's bounded steal-scratch arena, so an idle steal loop reuses
	// a constant amount of pool memory instead of leaking closures forever.
	// The arena has two halves used alternately: each call targets the half
	// NOT holding the current closure, so a replayed capsule always finds
	// its own closure (and the rest of the previous attempt's chain)
	// intact. On first entry from a durable chain the call parks that
	// chain's allocation cursor in persistent memory, where Adopt restores
	// it when the loop finds real work; entering with a cursor inherited
	// from a dead processor's arena (a takeover resume) carries the
	// victim's parked cursor forward instead. Scheduler steal-loop capsules
	// only: everything allocated while the chain sits in the arena is
	// recycled two steal attempts later.
	StealScratch()
	// StealRecordSlot returns the fixed steal-record slot of the arena half
	// holding the current closure. The slot is block-aligned, disjoint from
	// the arena's closure region, and only ever rewritten by another steal
	// record, which is what makes the helpers' guard-word validation sound
	// (see sched.runHelpInspect). Deterministic under replay and takeover.
	StealRecordSlot() pmem.Addr

	// ProcID returns the executing processor's ID. Capsule code may use it
	// only in the ways the paper's scheduler does (getProcNum).
	ProcID() int
	// Rand returns volatile randomness. Restarted capsules may observe
	// different values, so it is only safe in capsules whose persistent
	// writes are idempotent helper CAMs (e.g. steal-victim selection).
	Rand() uint64

	// EphRead / EphWrite access the processor's ephemeral memory (free, lost
	// on fault). Used by the external-memory and cache simulations where M
	// matters; most capsule code just uses Go locals as registers.
	EphRead(a int) uint64
	EphWrite(a int, v uint64)
	// EphSize returns M in words.
	EphSize() int

	// IsLive consults the liveness oracle isLive(procID) (free).
	IsLive(proc int) bool
	// NumProcs returns P (free).
	NumProcs() int
	// RestartAddrOf returns the restart-pointer address of proc; reading it
	// is the scheduler's getActiveCapsule when stealing from a dead
	// processor.
	RestartAddrOf(proc int) pmem.Addr
	// CtrlAddr returns the address of shared control word i (done flag,
	// root result, ...).
	CtrlAddr(i int) pmem.Addr
	// NoteSteal / NoteStealTry feed the experiment counters (free; repeat
	// executions after faults may double-count, which the harness accepts
	// as measurement noise).
	NoteSteal()
	NoteStealTry()
}

// Registry maps function IDs to Go functions. It is assembled once before a
// machine runs and is read-only afterwards, so lookups need no locking.
type Registry struct {
	funcs []Func
	names []string
	byIdx map[string]FuncID
}

// NewRegistry returns an empty registry. ID 0 is reserved as invalid.
func NewRegistry() *Registry {
	return &Registry{
		funcs: []Func{nil},
		names: []string{"<invalid>"},
		byIdx: map[string]FuncID{},
	}
}

// Register adds fn under name and returns its ID. Registering a duplicate
// name panics: capsule function identity must be unambiguous because IDs are
// persisted in closures.
func (r *Registry) Register(name string, fn Func) FuncID {
	if fn == nil {
		panic("capsule: nil function")
	}
	if _, dup := r.byIdx[name]; dup {
		panic("capsule: duplicate function name " + name)
	}
	id := FuncID(len(r.funcs))
	r.funcs = append(r.funcs, fn)
	r.names = append(r.names, name)
	r.byIdx[name] = id
	return id
}

// Lookup returns the function for id, or nil if unknown.
func (r *Registry) Lookup(id FuncID) Func {
	if int(id) >= len(r.funcs) {
		return nil
	}
	return r.funcs[id]
}

// Name returns the registered name for id.
func (r *Registry) Name(id FuncID) string {
	if int(id) >= len(r.names) {
		return fmt.Sprintf("<unknown %d>", id)
	}
	return r.names[id]
}

// Len returns the number of registered functions (excluding the reserved 0).
func (r *Registry) Len() int { return len(r.funcs) - 1 }
