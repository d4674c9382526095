package sched

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/capsule"
	"repro/internal/deque"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/pmem"
)

// fanout builds a flat scheduler workload without the forkjoin layer: the
// root thread forks n leaf jobs one at a time; each leaf writes a distinct
// output word and then checks whether all outputs are present — whichever
// leaf completes the set marks the computation done. This isolates scheduler
// behaviour (push/pop/steal) from join logic.
type fanout struct {
	m    *machine.Machine
	s    *Scheduler
	out  pmem.Addr
	n    int
	root capsule.FuncID
	leaf capsule.FuncID
	last capsule.FuncID
}

func newFanout(cfg machine.Config, n int) *fanout {
	m := machine.New(cfg)
	s := New(m, 1024)
	fo := &fanout{m: m, s: s, n: n}
	b := m.BlockWords()
	fo.out = m.HeapAllocBlocks(n * b) // one output word per block, WAR-safe

	fo.last = m.Registry.Register("t/last", func(e capsule.Env) {
		// Separate capsule so the completion check replays cleanly after
		// the leaf's own write (read-only).
		for i := 0; i < fo.n; i++ {
			if e.Read(fo.out+pmem.Addr(i*b)) == 0 {
				s.ThreadEnd(e)
				return
			}
		}
		e.Write(s.DoneAddr(), 1) // idempotent: several finishers may race
		s.ThreadEnd(e)
	})
	fo.leaf = m.Registry.Register("t/leaf", func(e capsule.Env) {
		i := e.Arg(0)
		e.Write(fo.out+pmem.Addr(int(i)*b), i+1)
		e.Install(e.NewClosure(fo.last, pmem.Nil))
	})
	fo.root = m.Registry.Register("t/root", func(e capsule.Env) {
		i := e.Arg(0)
		if int(i) == fo.n {
			s.ThreadEnd(e)
			return
		}
		child := e.NewClosure(fo.leaf, pmem.Nil, i)
		cont := e.NewClosure(fo.root, pmem.Nil, i+1)
		s.Fork(e, child, cont)
	})
	return fo
}

func (fo *fanout) run(t *testing.T) {
	t.Helper()
	fo.s.StartRoot(fo.m.BuildClosure(0, fo.root, pmem.Nil, 0))
	fo.m.Run()
	if !fo.s.IsDone() {
		t.Fatal("computation did not complete")
	}
	b := fo.m.BlockWords()
	for i := 0; i < fo.n; i++ {
		if got := fo.m.Mem.Read(fo.out + pmem.Addr(i*b)); got != uint64(i+1) {
			t.Errorf("leaf %d output = %d, want %d", i, got, i+1)
		}
	}
}

func TestFanoutSingleProc(t *testing.T) {
	newFanout(machine.Config{P: 1, Check: true, StrictCheck: true}, 20).run(t)
}

func TestFanoutMultiProcStealsHappen(t *testing.T) {
	fo := newFanout(machine.Config{P: 4, Seed: 2, Check: true}, 64)
	fo.run(t)
	if s := fo.m.Stats.Summarize(); s.Steals == 0 {
		t.Log("note: zero steals (legal but unusual at P=4, n=64)")
	}
	if v := fo.m.WARViolations(); len(v) != 0 {
		t.Errorf("WAR violations: %v", v)
	}
}

func TestFanoutSoftFaults(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fo := newFanout(machine.Config{
				P: 4, Seed: seed, Check: true,
				Injector: fault.NewIID(4, 0.02, seed),
			}, 40)
			fo.run(t)
		})
	}
}

func TestFanoutHardFaults(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := fault.First{fault.NewScript().
				Add(1, int64(15+seed*11), fault.Hard).
				Add(2, int64(40+seed*17), fault.Hard), fault.NewIID(4, 0.01, seed)}
			fo := newFanout(machine.Config{P: 4, Seed: seed, Check: true, Injector: inj}, 40)
			fo.run(t)
		})
	}
}

// TestDequeTransitionsValid attaches a memory watcher that checks every
// entry rewrite against the Figure 4 transition table (plus the documented
// Lemma A.12 exception), across a faulty multi-processor run.
func TestDequeTransitionsValid(t *testing.T) {
	inj := fault.First{fault.NewScript().Add(2, 60, fault.Hard), fault.NewIID(4, 0.02, 9)}
	fo := newFanout(machine.Config{P: 4, Seed: 9, Injector: inj}, 48)
	l := fo.s.Layout()

	isEntry := map[pmem.Addr]bool{}
	for p := 0; p < 4; p++ {
		for i := 0; i < l.Entries; i++ {
			isEntry[l.EntryAddr(p, i)] = true
		}
	}
	var mu sync.Mutex
	var bad []string
	fo.m.Mem.SetWatcher(func(a pmem.Addr, old, new uint64) {
		if !isEntry[a] {
			return
		}
		if !deque.ValidTransition(old, new) {
			mu.Lock()
			bad = append(bad, fmt.Sprintf(
				"entry %d: %s(tag %d) -> %s(tag %d)",
				a, deque.StateOf(old), deque.Tag(old), deque.StateOf(new), deque.Tag(new)))
			mu.Unlock()
		}
	})
	fo.run(t)
	t.Logf("steals %d, invalid transitions %d", fo.m.Stats.Summarize().Steals, len(bad))
	if len(bad) != 0 {
		t.Errorf("invalid deque transitions:\n%v", bad)
	}
}

// TestTopPointersMonotonic verifies top pointers only advance.
func TestTopPointersMonotonic(t *testing.T) {
	fo := newFanout(machine.Config{P: 4, Seed: 11, Injector: fault.NewIID(4, 0.02, 11)}, 48)
	l := fo.s.Layout()
	tops := map[pmem.Addr]bool{}
	for p := 0; p < 4; p++ {
		tops[l.TopAddr(p)] = true
	}
	var mu sync.Mutex
	var bad []string
	fo.m.Mem.SetWatcher(func(a pmem.Addr, old, new uint64) {
		if !tops[a] {
			return
		}
		if new < old {
			mu.Lock()
			bad = append(bad, fmt.Sprintf("top at %d moved backwards: %d -> %d", a, old, new))
			mu.Unlock()
		}
	})
	fo.run(t)
	if len(bad) != 0 {
		t.Errorf("%v", bad)
	}
}

// flagInjector soft-faults a processor exactly once in the whole run: at its
// first persistent access after test capsule code arms it. Replayed capsules
// re-arm, but the fired latch keeps the fault from recurring, modeling "one
// fault at this precise point".
type flagInjector struct {
	mu    sync.Mutex
	armed map[int]bool
	fired map[int]bool
}

func (fi *flagInjector) arm(proc int) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.armed == nil {
		fi.armed = map[int]bool{}
		fi.fired = map[int]bool{}
	}
	if !fi.fired[proc] {
		fi.armed[proc] = true
	}
}

func (fi *flagInjector) At(proc int) fault.Kind {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.armed[proc] && !fi.fired[proc] {
		fi.armed[proc] = false
		fi.fired[proc] = true
		return fault.Soft
	}
	return fault.None
}

// TestCASLosesStealCAMDoesNot is the Section 5 ablation: a steal that
// branches on a CAS's return value drops the stolen job if the processor
// faults immediately after the CAS (the success bit dies with the
// registers), while the CAM + separate-capsule re-check protocol recovers.
func TestCASLosesStealCAMDoesNot(t *testing.T) {
	build := func(useCAS bool) (got uint64, entryState deque.State) {
		inj := &flagInjector{}
		m := machine.New(machine.Config{P: 1, Injector: inj})
		l := deque.NewLayout(m, 8)
		out := m.HeapAllocBlocks(1)
		job := m.HeapAllocBlocks(8) // a fake job payload marker

		entry := l.EntryAddr(0, 0)
		old := deque.Pack(1, deque.Job, uint64(job))
		m.Mem.Write(entry, old)
		newWord := deque.Bump(old, deque.Taken, 0)

		var grab capsule.FuncID
		success := m.Registry.Register("t/success", func(e capsule.Env) {
			e.Write(out, 777) // "job executed"
			e.Halt()
		})
		fail := m.Registry.Register("t/fail", func(e capsule.Env) {
			e.Halt() // thief concludes the steal failed and gives up
		})
		if useCAS {
			grab = m.Registry.Register("t/grabCAS", func(e capsule.Env) {
				ok := e.CAS(entry, old, newWord)
				inj.arm(0) // fault at the NEXT access, after the CAS commits
				if ok {
					e.Install(e.NewClosure(success, pmem.Nil))
				} else {
					e.Install(e.NewClosure(fail, pmem.Nil))
				}
			})
		} else {
			grab = m.Registry.Register("t/grabCAM", func(e capsule.Env) {
				e.CAM(entry, old, newWord)
				inj.arm(0) // fault at the NEXT access, after the CAM commits
				// Fault-safe idiom: decide from the memory, not from the
				// lost register.
				cur := e.Read(entry)
				if cur == newWord {
					e.Install(e.NewClosure(success, pmem.Nil))
				} else {
					e.Install(e.NewClosure(fail, pmem.Nil))
				}
			})
		}
		m.SetRestart(0, m.BuildClosure(0, grab, pmem.Nil))
		m.Run()
		got, entryState = m.Mem.Read(out), deque.StateOf(m.Mem.Read(entry))
		t.Logf("CAS=%v, fault after the swap: job executed %v, entry %v", useCAS, got == 777, entryState)
		return got, entryState
	}

	// CAM version: fault after the CAM; the replayed capsule re-reads the
	// entry, sees its own success, and runs the job.
	if got, st := build(false); got != 777 || st != deque.Taken {
		t.Errorf("CAM protocol: out=%d state=%v, want 777/taken", got, st)
	}
	// CAS version: the swap succeeded (entry is taken) but the replay's CAS
	// fails, the thief concludes failure, and the job is silently dropped.
	if got, st := build(true); got != 0 || st != deque.Taken {
		t.Errorf("CAS ablation: out=%d state=%v, want 0/taken (dropped job)", got, st)
	}
}

// TestStealRecordHoming checks Lemma A.2 microscopically: after a successful
// steal the thief's receiving entry is local.
func TestStealRecordHoming(t *testing.T) {
	fo := newFanout(machine.Config{P: 2, Seed: 3}, 16)
	fo.run(t)
	// After completion every deque must be all-empty-or-taken with no
	// dangling locals or jobs.
	l := fo.s.Layout()
	for p := 0; p < 2; p++ {
		snap := l.Read(fo.m.Mem, p)
		for i, w := range snap.Entries {
			switch deque.StateOf(w) {
			case deque.Job:
				t.Errorf("deque %d entry %d: job left behind", p, i)
			case deque.Local:
				t.Errorf("deque %d entry %d: dangling local", p, i)
			}
		}
		if err := snap.CheckShape(); err != nil {
			t.Errorf("deque %d: %v", p, err)
		}
	}
}

func TestManyProcsManyJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	fo := newFanout(machine.Config{P: 8, Seed: 123, PoolWords: 1 << 21,
		Injector: fault.NewIID(8, 0.005, 123)}, 200)
	fo.run(t)
}
