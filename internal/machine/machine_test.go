package machine

import (
	"testing"

	"repro/internal/capsule"
	"repro/internal/fault"
	"repro/internal/pmem"
)

// buildCounter registers a persistent-loop capsule that increments a counter
// cell n times using the two-slot InstallSelf idiom, then halts. The counter
// is double-buffered (read slot a, write slot b, swap) to stay WAR-free,
// mirroring the paper's "persistent counters" remark in §4.
func buildCounter(m *Machine, cell0, cell1 pmem.Addr, n uint64) pmem.Addr {
	fid := m.Registry.Register("counter", func(e capsule.Env) {
		i := e.Arg(0)   // iterations done
		src := e.Arg(1) // which cell holds the current value (0 or 1)
		if i == n {
			e.Halt()
			return
		}
		from, to := cell0, cell1
		if src == 1 {
			from, to = cell1, cell0
		}
		v := e.Read(from)
		e.Write(to, v+1)
		e.InstallSelf(i+1, 1-src)
	})
	return m.BuildClosure(0, fid, pmem.Nil, 0, 0)
}

func counterValue(m *Machine, cell0, cell1 pmem.Addr, n uint64) uint64 {
	// Final value lives in the cell written on the last iteration.
	if n%2 == 1 {
		return m.Mem.Read(cell1)
	}
	return m.Mem.Read(cell0)
}

func TestCounterFaultless(t *testing.T) {
	m := New(Config{P: 1, Check: true, StrictCheck: true})
	c0, c1 := m.HeapAllocBlocks(1), m.HeapAllocBlocks(1)
	root := buildCounter(m, c0, c1, 10)
	m.SetRestart(0, root)
	m.Run()
	if got := counterValue(m, c0, c1, 10); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
	if v := m.WARViolations(); len(v) != 0 {
		t.Errorf("WAR violations: %v", v)
	}
}

func TestCounterUnderHeavyFaults(t *testing.T) {
	// With per-access fault probability 0.2 the counter must still reach
	// exactly n: capsule replays are idempotent.
	m := New(Config{P: 1, Check: true, Injector: fault.NewIID(1, 0.2, 99)})
	c0, c1 := m.HeapAllocBlocks(1), m.HeapAllocBlocks(1)
	root := buildCounter(m, c0, c1, 50)
	m.SetRestart(0, root)
	m.Run()
	if got := counterValue(m, c0, c1, 50); got != 50 {
		t.Errorf("counter = %d, want 50", got)
	}
	s := m.Stats.Summarize()
	if s.SoftFaults == 0 {
		t.Error("expected some soft faults at f=0.2")
	}
	if v := m.WARViolations(); len(v) != 0 {
		t.Errorf("WAR violations: %v", v)
	}
}

func TestFaultsIncreaseWorkButNotResult(t *testing.T) {
	run := func(f float64) (uint64, int64) {
		var inj fault.Injector = fault.NoFaults{}
		if f > 0 {
			inj = fault.NewIID(1, f, 7)
		}
		m := New(Config{P: 1, Injector: inj})
		c0, c1 := m.HeapAllocBlocks(1), m.HeapAllocBlocks(1)
		root := buildCounter(m, c0, c1, 100)
		m.SetRestart(0, root)
		m.Run()
		return counterValue(m, c0, c1, 100), m.Stats.Summarize().Work
	}
	v0, w0 := run(0)
	v1, w1 := run(0.1)
	if v0 != 100 || v1 != 100 {
		t.Fatalf("results differ: %d / %d", v0, v1)
	}
	if w1 <= w0 {
		t.Errorf("faulty work %d not larger than faultless %d", w1, w0)
	}
}

func TestWARViolationDetected(t *testing.T) {
	m := New(Config{P: 1, Check: true})
	cell := m.HeapAlloc(1)
	fid := m.Registry.Register("bad", func(e capsule.Env) {
		v := e.Read(cell)  // exposed read
		e.Write(cell, v+1) // write same block: WAR conflict
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	if v := m.WARViolations(); len(v) != 1 {
		t.Errorf("WAR violations = %v, want exactly 1", v)
	}
}

// TestWARViolationCorruptsUnderFault demonstrates Theorem 3.1's converse:
// a write-after-read-conflicted capsule that faults mid-way is NOT
// idempotent — the classic lost/extra increment.
func TestWARViolationCorruptsUnderFault(t *testing.T) {
	m := New(Config{P: 1, Injector: fault.NewScript().Add(0, 4, fault.Soft)})
	cell := m.HeapAlloc(1)
	fid := m.Registry.Register("incr-inplace", func(e capsule.Env) {
		v := e.Read(cell)
		e.Write(cell, v+1)
		e.Halt()
	})
	// Accesses: 0 restart-load, 1 closure hdr, 2 read cell, 3 write cell,
	// 4 halt-install <- fault fires here, after the write landed.
	// The replay re-reads the already-incremented cell: double increment.
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	got := m.Mem.Read(cell)
	t.Logf("in-place increment with one fault: cell = %d (correct would be 1)", got)
	if got != 2 {
		t.Errorf("cell = %d; expected the WAR bug to double-increment (2)", got)
	}
}

func TestHardFaultKillsProcessor(t *testing.T) {
	m := New(Config{P: 2, Injector: fault.NewScript().Add(1, 2, fault.Hard)})
	c0, c1 := m.HeapAllocBlocks(1), m.HeapAllocBlocks(1)
	d0, d1 := m.HeapAllocBlocks(1), m.HeapAllocBlocks(1)
	m.SetRestart(0, buildCounter(m, c0, c1, 5))
	fid := m.Registry.Register("counter2", func(e capsule.Env) {
		i := e.Arg(0)
		if i == 5 {
			e.Halt()
			return
		}
		from, to := d0, d1
		if e.Arg(1) == 1 {
			from, to = d1, d0
		}
		v := e.Read(from)
		e.Write(to, v+1)
		e.InstallSelf(i+1, 1-e.Arg(1))
	})
	m.SetRestart(1, m.BuildClosure(1, fid, pmem.Nil, 0, 0))
	m.Run()
	if got := counterValue(m, c0, c1, 5); got != 5 {
		t.Errorf("healthy proc counter = %d, want 5", got)
	}
	if m.Live.IsLive(1) {
		t.Error("proc 1 should be dead")
	}
	if m.Live.IsLive(0) {
		// proc 0 halted normally; halting is not death
	} else {
		t.Error("proc 0 wrongly marked dead")
	}
	if s := m.Stats.Summarize(); s.Dead != 1 {
		t.Errorf("summary Dead = %d, want 1", s.Dead)
	}
}

// TestDeadProcStaysDeadAcrossRuns: a processor a Script hard-faulted runs
// nothing on a later Run, even with a restart pointer installed. The Script
// answers Hard once, at its ordinal, so the machine itself keeps the
// processor dead.
func TestDeadProcStaysDeadAcrossRuns(t *testing.T) {
	m := New(Config{P: 2, Injector: fault.NewScript().Add(1, 2, fault.Hard)})
	cells := [2]pmem.Addr{m.HeapAllocBlocks(1), m.HeapAllocBlocks(1)}
	fid := m.Registry.Register("mark", func(e capsule.Env) {
		e.Write(cells[e.ProcID()], e.Arg(0))
		e.Halt()
	})
	for run := uint64(1); run <= 2; run++ {
		for p := 0; p < 2; p++ {
			m.SetRestart(p, m.BuildClosure(p, fid, pmem.Nil, run))
		}
		m.Run()
		// Proc 1's accesses are its restart load (0), the closure header
		// (1) and the write (2), where it dies.
		if got := m.Mem.Read(cells[0]); got != run {
			t.Errorf("run %d: proc 0 cell = %d, want %d", run, got, run)
		}
		if got := m.Mem.Read(cells[1]); got != 0 {
			t.Errorf("run %d: dead proc 1 wrote its cell (%d)", run, got)
		}
		if !m.Proc(1).Dead() || m.Stats.Summarize().Dead != 1 {
			t.Errorf("run %d: proc 1 dead = %v, summary Dead = %d; want true, 1",
				run, m.Proc(1).Dead(), m.Stats.Summarize().Dead)
		}
	}
}

func TestPersistentCallChain(t *testing.T) {
	// callee writes its result into the continuation closure's result slot
	// (arg 0), then installs the continuation — the §4.1 convention.
	m := New(Config{P: 1, Check: true, StrictCheck: true, Injector: fault.NewIID(1, 0.05, 3)})
	out := m.HeapAlloc(1)
	calleeFid := m.Registry.Register("callee", func(e capsule.Env) {
		x := e.Arg(0)
		k := e.Cont()
		e.Write(k+capsule.HdrWords, x*x) // result slot of continuation
		e.Install(k)
	})
	contFid := m.Registry.Register("cont", func(e capsule.Env) {
		res := e.Arg(0)
		e.Write(out, res)
		e.Halt()
	})
	kont := m.BuildClosure(0, contFid, pmem.Nil, 0 /* result slot */)
	callee := m.BuildClosure(0, calleeFid, kont, 7)
	m.SetRestart(0, callee)
	m.Run()
	if got := m.Mem.Read(out); got != 49 {
		t.Errorf("out = %d, want 49", got)
	}
	if v := m.WARViolations(); len(v) != 0 {
		t.Errorf("WAR violations: %v", v)
	}
}

func TestNewClosureAndInstallFromCapsule(t *testing.T) {
	m := New(Config{P: 1, Check: true, StrictCheck: true, Injector: fault.NewIID(1, 0.1, 11)})
	out := m.HeapAlloc(1)
	var leafFid, rootFid capsule.FuncID
	leafFid = m.Registry.Register("leaf", func(e capsule.Env) {
		e.Write(out, e.Arg(0)+1)
		e.Halt()
	})
	rootFid = m.Registry.Register("root", func(e capsule.Env) {
		next := e.NewClosure(leafFid, pmem.Nil, 41)
		e.Install(next)
	})
	m.SetRestart(0, m.BuildClosure(0, rootFid, pmem.Nil))
	m.Run()
	if got := m.Mem.Read(out); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
}

func TestAdoptCopiesJob(t *testing.T) {
	m := New(Config{P: 2})
	out := m.HeapAlloc(1)
	leafFid := m.Registry.Register("leafA", func(e capsule.Env) {
		e.Write(out, e.Arg(0))
		e.Halt()
	})
	// Build the job closure in proc 1's pool, then have proc 0 adopt it:
	// the copy must land in proc 0's pool and execute there.
	job := m.BuildClosure(1, leafFid, pmem.Nil, 1234)
	adoptFid := m.Registry.Register("adopter", func(e capsule.Env) {
		e.Adopt(job)
	})
	m.SetRestart(0, m.BuildClosure(0, adoptFid, pmem.Nil))
	m.RunProc(0)
	if got := m.Mem.Read(out); got != 1234 {
		t.Errorf("out = %d, want 1234", got)
	}
	lo, hi := m.PoolRange(0)
	// The restart pointer is HaltWord by now, so verify the adoption
	// indirectly: the copy must have consumed space in proc 0's pool.
	used := false
	for a := lo; a < hi; a += 8 {
		if m.Mem.Read(a) != 0 {
			used = true
			break
		}
	}
	if !used {
		t.Error("Adopt did not copy into adopter's pool")
	}
}

func TestCapsuleWithoutInstallPanics(t *testing.T) {
	m := New(Config{P: 1})
	fid := m.Registry.Register("forgetful", func(e capsule.Env) {})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing install")
		}
	}()
	m.RunProc(0)
}

func TestAccessAfterInstallPanics(t *testing.T) {
	m := New(Config{P: 1})
	cell := m.HeapAlloc(1)
	fid := m.Registry.Register("late-writer", func(e capsule.Env) {
		e.Halt()
		e.Write(cell, 1)
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for access after install")
		}
	}()
	m.RunProc(0)
}

func TestMaxCapsuleWorkTracked(t *testing.T) {
	m := New(Config{P: 1})
	cells := m.HeapAllocBlocks(64)
	fid := m.Registry.Register("writer8", func(e capsule.Env) {
		for i := 0; i < 8; i++ {
			e.Write(cells+pmem.Addr(i*8), uint64(i))
		}
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	s := m.Stats.Summarize()
	// 1 closure-header read + 8 writes + 1 halt-install = 10.
	if s.MaxCapsWork != 10 {
		t.Errorf("MaxCapsWork = %d, want 10", s.MaxCapsWork)
	}
}

func TestBlockTransferCosts(t *testing.T) {
	m := New(Config{P: 1, BlockWords: 8})
	arr := m.HeapAllocBlocks(16)
	fid := m.Registry.Register("blockcopy", func(e capsule.Env) {
		buf := make([]uint64, 8)
		e.ReadBlock(arr, buf)
		e.WriteBlock(arr+8, buf)
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	s := m.Stats.Summarize()
	// restart-load + closure hdr + 1 block read = 3 reads; block write + halt = 2 writes.
	if s.Reads != 3 || s.Writes != 2 {
		t.Errorf("reads/writes = %d/%d, want 3/2", s.Reads, s.Writes)
	}
}

func TestEphemeralLostOnFault(t *testing.T) {
	// A capsule that (incorrectly) trusts ephemeral memory across a fault
	// sees cleared/poisoned state; one that re-writes first is safe.
	m := New(Config{P: 1, Check: true, Injector: fault.NewScript().Add(0, 3, fault.Soft)})
	out := m.HeapAlloc(1)
	fid := m.Registry.Register("ephuser", func(e capsule.Env) {
		e.EphWrite(0, 777) // write first: well-formed
		v := e.EphRead(0)  // fine
		e.Write(out, v)    // access 2 (after restart-load 0, hdr 1) -> fault at 3 (halt)
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	if got := m.Mem.Read(out); got != 777 {
		t.Errorf("out = %d, want 777 (well-formed capsule must replay cleanly)", got)
	}
	if m.WellFormedViolations() != 0 {
		t.Errorf("well-formedness violations = %d", m.WellFormedViolations())
	}
}
