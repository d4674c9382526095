// Package sched implements the paper's fault-tolerant work-stealing
// scheduler (Figure 3) on the Parallel-PM machine.
//
// Because a processor can fault between any two persistent accesses, every
// CAM lives in its own capsule (Figure 3's caption) and multi-access
// scheduler operations become short capsule chains whose intermediate values
// travel in closures:
//
//	popBottom   = fwStart  (read bot, stack[bot-1])        -> fwPopBottom (CAM, re-check, adopt)
//	popTop      = fwSteal  (pick victim)                   -> help chain
//	              -> fwInspect (read top, stack[top], own e/c)
//	              -> fwGrab / fwGrabLocal (write record, CAM)
//	              -> help chain -> fwTaken / fwTakenLocal (check, adopt / take over)
//	pushBottom  = pushRead (read bot, tags)                -> pushCAM (writes + CAM, or recurse)
//	clearBottom = clearRead (read bot, tag)                -> clearWrite (blind write)
//	helpPopTop  = helpInspect -> helpEntry (CAM thief slot) -> helpTop (CAM top)
//
// Soft faults replay the active capsule; every chain above is idempotent
// under replay (each CAM is non-reverting, every plain write is
// deterministic in its closure). Hard faults are handled by stealing the
// dead processor's local entry: the thief re-runs the victim's *active
// capsule* — read straight from the victim's restart pointer, allocating
// from the victim's pool so replayed allocations land at identical addresses
// — which is what makes mid-operation takeover exactly-once (Appendix A).
package sched

import (
	"fmt"

	"repro/internal/capsule"
	"repro/internal/deque"
	"repro/internal/machine"
	"repro/internal/pmem"
)

// Ctrl word indices used by the scheduler.
const (
	ctrlDone = 0 // set to 1 when the root computation completes
)

// Scheduler wires the WS-Deques and scheduler capsules into a machine.
type Scheduler struct {
	m *machine.Machine
	l *deque.Layout

	fwStart     capsule.FuncID
	fwPopBottom capsule.FuncID
	fwSteal     capsule.FuncID
	fwInspect   capsule.FuncID
	fwGrab      capsule.FuncID
	fwTaken     capsule.FuncID
	fwGrabLocal capsule.FuncID
	fwTakenLoc  capsule.FuncID
	helpInspect capsule.FuncID
	helpEntry   capsule.FuncID
	helpTop     capsule.FuncID
	pushRead    capsule.FuncID
	pushCAM     capsule.FuncID
	clearRead   capsule.FuncID
	clearWrite  capsule.FuncID
}

// New creates a scheduler with deques of `entries` slots on m. It registers
// all scheduler capsule functions, so call it exactly once per machine.
func New(m *machine.Machine, entries int) *Scheduler {
	s := &Scheduler{m: m, l: deque.NewLayout(m, entries)}
	r := m.Registry
	s.fwStart = r.Register("sched/findWork", s.runFindWork)
	s.fwPopBottom = r.Register("sched/popBottom", s.runPopBottom)
	s.fwSteal = r.Register("sched/steal", s.runSteal)
	s.fwInspect = r.Register("sched/inspect", s.runInspect)
	s.fwGrab = r.Register("sched/grab", s.runGrab)
	s.fwTaken = r.Register("sched/taken", s.runTaken)
	s.fwGrabLocal = r.Register("sched/grabLocal", s.runGrabLocal)
	s.fwTakenLoc = r.Register("sched/takenLocal", s.runTakenLocal)
	s.helpInspect = r.Register("sched/helpInspect", s.runHelpInspect)
	s.helpEntry = r.Register("sched/helpEntry", s.runHelpEntry)
	s.helpTop = r.Register("sched/helpTop", s.runHelpTop)
	s.pushRead = r.Register("sched/pushRead", s.runPushRead)
	s.pushCAM = r.Register("sched/pushCAM", s.runPushCAM)
	s.clearRead = r.Register("sched/clearRead", s.runClearRead)
	s.clearWrite = r.Register("sched/clearWrite", s.runClearWrite)
	return s
}

// Layout exposes the deque layout for tests and validators.
func (s *Scheduler) Layout() *deque.Layout { return s.l }

// DoneAddr returns the completion-flag address.
func (s *Scheduler) DoneAddr() pmem.Addr { return s.m.CtrlAddr(ctrlDone) }

// IsDone reports (harness-level) whether the computation signalled
// completion.
func (s *Scheduler) IsDone() bool { return s.m.Mem.Read(s.DoneAddr()) == 1 }

// StartRoot assigns the root thread (a closure built in proc 0's pool) to
// processor 0 and sends every other processor looking for work. It clears
// the completion flag and every deque, so a machine whose previous
// computation finished can be started again (serialized re-run: closure
// pools keep bump-allocating across runs and are reclaimed by the epoch
// recycling of Seq-structured programs, exactly as within one long run).
func (s *Scheduler) StartRoot(root pmem.Addr) {
	mem := s.m.Mem
	mem.Write(s.DoneAddr(), 0)
	for p := 0; p < s.m.P(); p++ {
		mem.Write(s.l.TopAddr(p), 0)
		mem.Write(s.l.BotAddr(p), 0)
		// Rewinding top/bot alone leaves the previous run's tags and states
		// in the entry words: a thread stolen in the new run would then CAM
		// its receiving entry from Empty against a stale word, fail, and
		// re-push forever. A finished run holds no live steal, so every entry
		// goes back to the zero word a fresh machine starts with.
		for i := 0; i < s.l.Entries; i++ {
			mem.Write(s.l.EntryAddr(p, i), 0)
		}
	}
	// Proc 0 runs the root thread, tracked by a local entry (Lemma A.2).
	mem.Write(s.l.EntryAddr(0, 0), deque.Pack(1, deque.Local, 0))
	s.m.SetRestart(0, root)
	for p := 1; p < s.m.P(); p++ {
		s.m.SetRestart(p, s.m.BuildClosure(p, s.fwStart, pmem.Nil))
	}
}

// ---- User-facing transitions (called from inside capsule code) ----

// Fork pushes child onto the executing processor's deque and then continues
// with cont — the paper's fork(): a persistent call into pushBottom.
// It must be the capsule's final action.
func (s *Scheduler) Fork(e capsule.Env, child, cont pmem.Addr) {
	e.Install(e.NewClosure(s.pushRead, pmem.Nil, uint64(child), uint64(cont)))
}

// ThreadEnd finishes the current thread: clear the bottom entry and find new
// work (Figure 3's scheduler()). It must be the capsule's final action.
func (s *Scheduler) ThreadEnd(e capsule.Env) {
	e.Install(e.NewClosure(s.clearRead, pmem.Nil))
}

// Finish marks the whole computation complete and halts the calling
// processor; all others observe the flag in their steal loop and halt too.
// Call from the root continuation. Must be the capsule's final action.
func (s *Scheduler) Finish(e capsule.Env) {
	e.Write(s.m.CtrlAddr(ctrlDone), 1)
	e.Halt()
}

// ---- findWork / popBottom ----

// runFindWork: read bot and the entry below it; decide pop vs steal.
// Reads only, so replays (even on another processor's deque after takeover)
// are harmless; getProcNum() is dynamic, per the paper.
func (s *Scheduler) runFindWork(e capsule.Env) {
	deq := e.ProcID()
	b := e.Read(s.l.BotAddr(deq))
	if b == 0 {
		e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
		return
	}
	old := e.Read(s.l.EntryAddr(deq, int(b-1)))
	if deque.StateOf(old) != deque.Job {
		e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
		return
	}
	e.Install(e.NewClosure(s.fwPopBottom, pmem.Nil, uint64(deq), b, old))
}

// runPopBottom: CAM the job to local, re-check, and either run it or fall
// through to stealing. Args: [deq, b, old].
//
// The CAM preserves the job's closure address in the local entry's payload.
// This closes a takeover window the sweep tests exposed: if the owner dies
// between a successful CAM and the jump to the popped thread, a thief steals
// the local entry (local -> taken, tag +1) and resumes this very capsule —
// whose replayed CAM fails and whose re-read no longer matches. The tag
// arithmetic identifies that exact history (job -> our local -> stolen from
// our dead self), and the thread continues on the thief instead of being
// dropped. This is the mechanism behind Lemma A.10's claim that the stolen
// jump "maintains the continuation".
func (s *Scheduler) runPopBottom(e capsule.Env) {
	deq, b, old := int(e.Arg(0)), e.Arg(1), e.Arg(2)
	entry := s.l.EntryAddr(deq, int(b-1))
	f := pmem.Addr(deque.Payload(old))
	newWord := deque.Bump(old, deque.Local, deque.Payload(old))
	e.CAM(entry, old, newWord)
	cur := e.Read(entry)
	switch {
	case cur == newWord:
		e.Write(s.l.BotAddr(deq), b-1)
		e.Adopt(f)
	case deque.StateOf(cur) == deque.Taken && deque.Tag(cur) == deque.Tag(newWord)+1:
		// Our CAM succeeded, the owner died, and we are the thief that
		// stole the resulting local entry: the thread is homed with us
		// now. Run it. (The only path to taken at tag+2 from a job at tag
		// is job -> local (our CAM) -> taken (steal from dead owner).)
		e.Adopt(f)
	default:
		// A concurrent popTop beat us to the last job.
		e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
	}
}

// ---- steal loop ----

// runSteal: termination check, then pick a random victim and start a
// popTop: help first (Figure 3 line 33), then inspect. The victim choice is
// volatile randomness — this capsule writes nothing but fresh closures, so
// replaying with a different victim is harmless.
//
// StealScratch bounds the loop's memory: every attempt's closures (and its
// steal record, see runGrab) live in one half of the processor's scratch
// arena, recycled two attempts later, so an idle processor no longer
// consumes its pool. The durable chain cursor is parked on entry and
// restored by Adopt when the loop lands real work.
func (s *Scheduler) runSteal(e capsule.Env) {
	if e.Read(s.m.CtrlAddr(ctrlDone)) == 1 {
		e.Halt()
		return
	}
	e.StealScratch()
	victim := int(e.Rand() % uint64(e.NumProcs()))
	e.NoteStealTry()
	cont := e.NewClosure(s.fwInspect, pmem.Nil, uint64(victim))
	e.Install(e.NewClosure(s.helpInspect, cont, uint64(victim)))
}

// runInspect: read the victim's top entry and our own receiving slot, then
// branch. Args: [victim]. Reads only.
func (s *Scheduler) runInspect(e capsule.Env) {
	victim := int(e.Arg(0))
	t := e.Read(s.l.TopAddr(victim))
	if int(t) >= s.l.Entries {
		panic(fmt.Sprintf("sched: deque %d overflow (top=%d); raise entries", victim, t))
	}
	old := e.Read(s.l.EntryAddr(victim, int(t)))

	switch deque.StateOf(old) {
	case deque.Empty:
		e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
	case deque.Taken:
		// Someone else is mid-steal: help them, then retry.
		cont := e.NewClosure(s.fwSteal, pmem.Nil)
		e.Install(e.NewClosure(s.helpInspect, cont, uint64(victim)))
	case deque.Job:
		me := e.ProcID()
		myBot := e.Read(s.l.BotAddr(me))
		myEntry := s.l.EntryAddr(me, int(myBot))
		c := deque.Tag(e.Read(myEntry))
		e.Install(e.NewClosure(s.fwGrab, pmem.Nil,
			uint64(victim), t, old, uint64(myEntry), c))
	case deque.Local:
		if e.IsLive(victim) {
			e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
			return
		}
		// `old` was read before the liveness check. A long stall between
		// the two reads can make a snapshot from BEFORE the victim's later
		// pushes look like its final local entry, and runGrabLocal's blind
		// pre-clear of the entry above would then wipe a live job. Re-read
		// after observing death: tags are monotone, so an unchanged word
		// really is the victim's final state (the victim can no longer
		// push, and any concurrent thief transition bumps the tag).
		if e.Read(s.l.EntryAddr(victim, int(t))) != old {
			e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
			return
		}
		if int(t)+1 >= s.l.Entries {
			panic(fmt.Sprintf("sched: deque %d overflow during local steal", victim))
		}
		me := e.ProcID()
		myBot := e.Read(s.l.BotAddr(me))
		myEntry := s.l.EntryAddr(me, int(myBot))
		c := deque.Tag(e.Read(myEntry))
		s2 := deque.Tag(e.Read(s.l.EntryAddr(victim, int(t)+1)))
		e.Install(e.NewClosure(s.fwGrabLocal, pmem.Nil,
			uint64(victim), t, old, uint64(myEntry), c, s2))
	}
}

// runGrab: the steal CAM for a job entry. Writes the steal record into the
// arena half's fixed slot (deterministic on replay and takeover), CAMs the
// victim entry to taken, then helps and checks. The two check words are
// written FIRST: a later record recycling the slot invalidates them before
// it can change the receiving-entry words, which is what lets a helper
// holding a stale entry word detect the reuse (see runHelpInspect).
// Args: [victim, t, old, myEntry, c].
func (s *Scheduler) runGrab(e capsule.Env) {
	victim, t, old := int(e.Arg(0)), e.Arg(1), e.Arg(2)
	myEntry, c := e.Arg(3), e.Arg(4)

	rec := e.StealRecordSlot()
	entry := s.l.EntryAddr(victim, int(t))
	newWord := deque.Bump(old, deque.Taken, uint64(rec))
	e.Write(rec+deque.RecGuard, newWord)
	e.Write(rec+deque.RecVictim, uint64(entry))
	e.Write(rec+deque.RecEntry, myEntry)
	e.Write(rec+deque.RecTag, c)
	e.CAM(entry, old, newWord)

	f := deque.Payload(old)
	cont := e.NewClosure(s.fwTaken, pmem.Nil, uint64(victim), t, newWord, f)
	e.Install(e.NewClosure(s.helpInspect, cont, uint64(victim)))
}

// runTaken: did our CAM win? If yes the helped entry transition has homed
// the job at our bottom slot; run it. Args: [victim, t, newWord, f].
func (s *Scheduler) runTaken(e capsule.Env) {
	victim, t, newWord, f := int(e.Arg(0)), e.Arg(1), e.Arg(2), e.Arg(3)
	cur := e.Read(s.l.EntryAddr(victim, int(t)))
	if cur != newWord {
		e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
		return
	}
	e.NoteSteal()
	e.Adopt(pmem.Addr(f))
}

// runGrabLocal: steal the in-progress thread of a hard-faulted processor.
// Pre-clears the entry above (so the victim's replayed pushBottom sees
// empty, Lemma A.12), then CAMs local -> taken.
// Args: [victim, t, old, myEntry, c, s2].
func (s *Scheduler) runGrabLocal(e capsule.Env) {
	victim, t, old := int(e.Arg(0)), e.Arg(1), e.Arg(2)
	myEntry, c, s2 := e.Arg(3), e.Arg(4), e.Arg(5)

	rec := e.StealRecordSlot()
	entry := s.l.EntryAddr(victim, int(t))
	newWord := deque.Bump(old, deque.Taken, uint64(rec))
	e.Write(rec+deque.RecGuard, newWord)
	e.Write(rec+deque.RecVictim, uint64(entry))
	e.Write(rec+deque.RecEntry, myEntry)
	e.Write(rec+deque.RecTag, c)
	e.Write(s.l.EntryAddr(victim, int(t)+1), deque.Pack(s2+1, deque.Empty, 0))
	e.CAM(entry, old, newWord)

	cont := e.NewClosure(s.fwTakenLoc, pmem.Nil, uint64(victim), t, newWord)
	e.Install(e.NewClosure(s.helpInspect, cont, uint64(victim)))
}

// runTakenLocal: on success, take over the dead victim's *active capsule*:
// install its restart-pointer target directly (no copy!), so replayed
// allocations come from the victim's pool and land where the victim's
// partial run put them. Args: [victim, t, newWord].
func (s *Scheduler) runTakenLocal(e capsule.Env) {
	victim, t, newWord := int(e.Arg(0)), e.Arg(1), e.Arg(2)
	cur := e.Read(s.l.EntryAddr(victim, int(t)))
	if cur != newWord {
		e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
		return
	}
	e.NoteSteal()
	g := e.Read(e.RestartAddrOf(victim)) // getActiveCapsule(victim)
	if g == machine.HaltWord || g == 0 {
		// The victim halted cleanly before dying mid-capsule; nothing to
		// resume (can only happen in teardown edge cases).
		e.Install(e.NewClosure(s.fwSteal, pmem.Nil))
		return
	}
	e.TakeOver(pmem.Addr(g))
}

// ---- helpPopTop ----

// runHelpInspect: if the victim's top entry is mid-steal (taken), read its
// record and run the two help CAMs; otherwise continue. The continuation
// rides in the closure's continuation slot. Args: [victim].
func (s *Scheduler) runHelpInspect(e capsule.Env) {
	victim := int(e.Arg(0))
	cont := e.Cont()
	t := e.Read(s.l.TopAddr(victim))
	if int(t) >= s.l.Entries {
		panic(fmt.Sprintf("sched: deque %d overflow (top=%d) during help", victim, t))
	}
	w := e.Read(s.l.EntryAddr(victim, int(t)))
	if deque.StateOf(w) != deque.Taken {
		e.Install(cont)
		return
	}
	rec := pmem.Addr(deque.Payload(w))
	entry := s.l.EntryAddr(victim, int(t))
	ps := e.Read(rec + deque.RecEntry)
	i := e.Read(rec + deque.RecTag)
	if e.Read(rec+deque.RecVictim) != uint64(entry) || e.Read(rec+deque.RecGuard) != w {
		// Stale record: the steal that published it completed long ago and
		// its arena slot was recycled by a later attempt. Slots are only
		// ever rewritten by other records, check words first, so matching
		// check words AFTER reading entry/tag prove both belong to the
		// steal that published w at this entry; a mismatch means that
		// steal's help already finished — skip it.
		e.Install(cont)
		return
	}
	next := e.NewClosure(s.helpTop, cont, uint64(victim), t)
	e.Install(e.NewClosure(s.helpEntry, next, ps, i))
}

// runHelpEntry: CAM the thief's receiving slot from empty to local — this is
// what "homes" a stolen thread at the thief (or completes the homing for a
// dead thief). Args: [ps, i]; continuation in the closure.
func (s *Scheduler) runHelpEntry(e capsule.Env) {
	ps, i := pmem.Addr(e.Arg(0)), e.Arg(1)
	e.CAM(ps, deque.Pack(i, deque.Empty, 0), deque.Pack(i+1, deque.Local, 0))
	e.Install(e.Cont())
}

// runHelpTop: advance the victim's top pointer past the consumed entry.
// Args: [victim, t]; continuation in the closure.
func (s *Scheduler) runHelpTop(e capsule.Env) {
	victim, t := int(e.Arg(0)), e.Arg(1)
	e.CAM(s.l.TopAddr(victim), t, t+1)
	e.Install(e.Cont())
}

// ---- pushBottom (fork) ----

// runPushRead: snapshot bot and the tags around it. Args: [f, cont].
// getProcNum() is dynamic: if a takeover thief replays this read-only
// capsule it simply pushes onto its own deque, per the paper.
func (s *Scheduler) runPushRead(e capsule.Env) {
	f, cont := e.Arg(0), e.Arg(1)
	deq := e.ProcID()
	b := e.Read(s.l.BotAddr(deq))
	if int(b)+1 >= s.l.Entries {
		panic(fmt.Sprintf("sched: deque %d overflow during push (bot=%d)", deq, b))
	}
	t1 := deque.Tag(e.Read(s.l.EntryAddr(deq, int(b)+1)))
	old := e.Read(s.l.EntryAddr(deq, int(b)))
	e.Install(e.NewClosure(s.pushCAM, pmem.Nil, f, cont, uint64(deq), b, t1, old))
}

// runPushCAM: Figure 3 lines 71-78. The dynamic re-read of stack[b] decides
// between the normal push and the hard-fault recovery path (recursive push
// onto the executing processor's own deque). Args: [f, cont, deq, b, t1, old].
func (s *Scheduler) runPushCAM(e capsule.Env) {
	f, cont := e.Arg(0), e.Arg(1)
	deq, b, t1, old := int(e.Arg(2)), e.Arg(3), e.Arg(4), e.Arg(5)

	cur := e.Read(s.l.EntryAddr(deq, int(b)))
	if cur == old && deque.StateOf(old) == deque.Local {
		e.Write(s.l.EntryAddr(deq, int(b)+1), deque.Pack(t1+1, deque.Local, 0))
		e.Write(s.l.BotAddr(deq), b+1)
		e.CAM(s.l.EntryAddr(deq, int(b)), old, deque.Bump(old, deque.Job, f))
		e.Install(pmem.Addr(cont))
		return
	}
	above := e.Read(s.l.EntryAddr(deq, int(b)+1))
	if deque.StateOf(above) == deque.Empty {
		// We are a takeover thief replaying a dead processor's push whose
		// local entry was stolen out from under it: push onto our own
		// deque instead (Figure 3 line 76).
		e.Install(e.NewClosure(s.pushRead, pmem.Nil, f, cont))
		return
	}
	// The push already completed in an earlier (faulted) run.
	e.Install(pmem.Addr(cont))
}

// ---- clearBottom + return to scheduler ----

// runClearRead: snapshot bot and the bottom entry's tag. Args: none.
func (s *Scheduler) runClearRead(e capsule.Env) {
	deq := e.ProcID()
	b := e.Read(s.l.BotAddr(deq))
	tag := deque.Tag(e.Read(s.l.EntryAddr(deq, int(b))))
	e.Install(e.NewClosure(s.clearWrite, pmem.Nil, uint64(deq), b, tag))
}

// runClearWrite: blind-write the bottom entry to empty — deterministic under
// replay; may legally overwrite a taken entry after a takeover (the
// Figure 4 exception, Lemma A.12). Args: [deq, b, tag].
func (s *Scheduler) runClearWrite(e capsule.Env) {
	deq, b, tag := int(e.Arg(0)), e.Arg(1), e.Arg(2)
	e.Write(s.l.EntryAddr(deq, int(b)), deque.Pack(tag+1, deque.Empty, 0))
	e.Install(e.NewClosure(s.fwStart, pmem.Nil))
}
