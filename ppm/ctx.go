package ppm

import (
	"repro/internal/capsule"
)

// Ctx is the typed view of the machine a capsule runs against. On the model
// engine every method that touches persistent memory is a potential fault
// point and costs one unit per block transferred; on the native engine the
// same operations execute directly on hardware. A capsule body must end
// with exactly one control transfer: Done, Fork, ForkThen, ParallelFor,
// Seq, Then, or Halt. The joinleak analyzer in cmd/ppmvet enforces that
// contract statically — every path through a capsule must perform exactly
// one transfer, as a top-level statement — alongside warfree (no
// write-after-read conflicts, Theorem 3.1), replaydet (no nondeterminism
// a replay could observe), and capsulescope (no stale Ctx capture, host
// mutation, or harness calls inside capsules).
type Ctx struct {
	e  capCtx
	rt *Runtime
}

// ---- typed closure-argument accessors ----

// Int returns closure argument i as an int.
func (c Ctx) Int(i int) int { return int(c.e.Arg(i)) }

// Uint returns closure argument i as a raw word.
func (c Ctx) Uint(i int) uint64 { return c.e.Arg(i) }

// Addr returns closure argument i as a persistent-memory address.
func (c Ctx) Addr(i int) Addr { return Addr(c.e.Arg(i)) }

// NArgs returns the number of arguments in the current closure.
func (c Ctx) NArgs() int { return c.e.NArgs() }

// ---- machine queries ----

// Proc returns the executing processor's ID.
func (c Ctx) Proc() int { return c.e.ProcID() }

// Procs returns the number of processors P.
func (c Ctx) Procs() int { return c.e.NumProcs() }

// Rand returns volatile randomness. A replayed capsule may observe different
// values, so it is only safe where the paper allows it: capsules whose
// persistent writes are idempotent helper CAMs.
func (c Ctx) Rand() uint64 { return c.e.Rand() }

// ---- persistent memory ----

// Read performs an external read of the word at a (one transfer on the
// model engine).
func (c Ctx) Read(a Addr) uint64 { return c.e.Read(a) }

// Write performs an external write of the word at a (one transfer on the
// model engine).
func (c Ctx) Write(a Addr, v uint64) { c.e.Write(a, v) }

// CAM is compare-and-modify: a CAS whose outcome is deliberately not
// returned — the only safe read-modify-write under faults (Section 5).
// Decide the outcome by reading the target in a LATER capsule.
func (c Ctx) CAM(a Addr, old, new uint64) { c.e.CAM(a, old, new) }

// Alloc reserves n fresh zeroed words and returns them as an Array. On the
// model engine this bumps the capsule chain's deterministic allocator, so
// replays return the same addresses and scratch allocated here is
// write-after-read conflict free by construction.
func (c Ctx) Alloc(n int) Array {
	return Array{rt: c.rt, base: c.e.Alloc(n), n: n, stride: 1}
}

// Scratch returns n zeroed words of capsule-local memory for a leaf's working
// vectors (the values it will SetRange, an index list for GatherAt). On the
// native engine they come from the worker's ephemeral memory, not the Go
// heap: valid until this capsule's control transfer; lost on fault, like the
// paper's ephemeral memory. Use c.Scratch(n)[:0] for an append buffer of
// capacity n.
func (c Ctx) Scratch(n int) []uint64 { return c.e.Scratch(n) }

// ScratchSpans is Scratch for the span vectors Gather and Scatter take.
func (c Ctx) ScratchSpans(n int) [][2]int { return c.e.ScratchSpans(n) }

// ---- control transfer ----

// Call pairs a registered function with its arguments, for Fork, ForkThen,
// ParallelFor, Seq, Then, and Run. It holds its words by value (inline up to
// six), so building one and handing it to a control transfer allocates
// nothing.
type Call struct {
	fn   FuncRef
	args capsule.Args
}

// Call builds a Call of f. Arguments may be int, uint64, Addr, bool, or
// FuncRef; they are stored as closure words.
func (f FuncRef) Call(args ...any) Call {
	c := Call{fn: f}
	for _, a := range args {
		c.args.Append(word(a))
	}
	return c
}

// Done finishes the current task, handing control to its continuation (the
// enclosing join, or the computation's finish). Must be the capsule's final
// action.
func (c Ctx) Done() { c.e.Done() }

// Halt stops the executing processor's run loop after this capsule. Only
// for RunOnAll-style manual chains; scheduler tasks end with Done.
func (c Ctx) Halt() { c.e.Halt() }

// Then installs next as this capsule's successor in the same thread,
// preserving the current continuation — the sequencing idiom for multi-phase
// capsules. Must be the capsule's final action.
func (c Ctx) Then(next Call) { c.e.Then(next.fn.fid, next.args) }

// Seq runs the calls strictly one after another: each call's entire
// computation — including everything it forks — completes before the next
// call starts, and the last one hands control to this capsule's
// continuation. This is the phase-chaining idiom multi-pass algorithms use
// (sort chunks, then count, then scatter, ...). Must be the capsule's final
// action.
func (c Ctx) Seq(calls ...Call) {
	fids, argss := c.e.SeqBuf(len(calls))
	for i, cl := range calls {
		fids[i] = cl.fn.fid
		argss[i] = cl.args
	}
	c.e.Seq(fids, argss)
}

// Fork runs left and right in parallel and, when both have finished,
// continues with this capsule's continuation. The left child is made
// stealable; the right child continues in the current thread. Must be the
// capsule's final action.
func (c Ctx) Fork(left, right Call) {
	c.e.Fork(left.fn.fid, left.args, right.fn.fid, right.args, 0, capsule.Args{}, false)
}

// ForkThen runs left and right in parallel; when both have finished, join
// runs (typically combining the children's results), and the thread then
// continues with this capsule's continuation. Must be the capsule's final
// action.
func (c Ctx) ForkThen(left, right, join Call) {
	c.e.Fork(left.fn.fid, left.args, right.fn.fid, right.args,
		join.fn.fid, join.args, true)
}

// ParallelFor runs body over [lo, hi) as a balanced fork-join tree with at
// most grain indices per leaf, then continues with this capsule's
// continuation. body receives arguments [lo, hi, extra0, extra1] — a
// sub-range plus up to two caller words — and must end with Done. Must be
// the capsule's final action.
func (c Ctx) ParallelFor(body FuncRef, lo, hi, grain int, extra ...any) {
	if len(extra) > 2 {
		panic("ppm: ParallelFor carries at most two extra arguments")
	}
	var x [2]uint64
	for i, a := range extra {
		x[i] = word(a)
	}
	c.e.ParallelFor(body.fid, lo, hi, grain, x[0], x[1])
}
