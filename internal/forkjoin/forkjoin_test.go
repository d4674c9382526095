package forkjoin

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/capsule"
	"repro/internal/deque"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/pmem"
	"repro/internal/sched"
)

// treeSum builds a fork-join tree summation over n input words: a classic
// race-free, WAR-conflict-free computation. Returns the machine, fj runtime,
// root fid, and the result address.
type treeSum struct {
	m      *machine.Machine
	fj     *FJ
	sumFid capsule.FuncID
	cmbFid capsule.FuncID
	in     pmem.Addr
	out    pmem.Addr
	n      int
	leaf   int
}

func newTreeSum(cfg machine.Config, n, leaf int) *treeSum {
	m := machine.New(cfg)
	s := sched.New(m, 512)
	fj := New(m, s)
	ts := &treeSum{m: m, fj: fj, n: n, leaf: leaf}
	ts.in = m.HeapAllocBlocks(n)
	ts.out = m.HeapAllocBlocks(1)
	for i := 0; i < n; i++ {
		m.Mem.Write(ts.in+pmem.Addr(i), uint64(i%13+1))
	}

	ts.cmbFid = m.Registry.Register("test/combine", func(e capsule.Env) {
		l := e.Read(pmem.Addr(e.Arg(0)))
		r := e.Read(pmem.Addr(e.Arg(1)))
		e.Write(pmem.Addr(e.Arg(2)), l+r)
		fj.TaskDone(e)
	})
	ts.sumFid = m.Registry.Register("test/sum", func(e capsule.Env) {
		lo, hi, outA := int(e.Arg(0)), int(e.Arg(1)), pmem.Addr(e.Arg(2))
		if hi-lo <= ts.leaf {
			b := m.BlockWords()
			buf := make([]uint64, b)
			var acc uint64
			for w := lo; w < hi; {
				base := e.ReadBlock(ts.in+pmem.Addr(w), buf)
				start := int(ts.in) + w - int(base)
				for j := start; j < b && w < hi; j++ {
					acc += buf[j]
					w++
				}
			}
			e.Write(outA, acc)
			fj.TaskDone(e)
			return
		}
		mid := (lo + hi) / 2
		slots := e.Alloc(2)
		cmb := e.NewClosure(ts.cmbFid, e.Cont(),
			uint64(slots), uint64(slots+1), uint64(outA))
		fj.Fork2(e,
			ts.sumFid, []uint64{uint64(lo), uint64(mid), uint64(slots)},
			ts.sumFid, []uint64{uint64(mid), uint64(hi), uint64(slots + 1)},
			cmb)
	})
	return ts
}

func (ts *treeSum) expected() uint64 {
	var want uint64
	for i := 0; i < ts.n; i++ {
		want += uint64(i%13 + 1)
	}
	return want
}

func (ts *treeSum) run(t *testing.T) uint64 {
	t.Helper()
	done := ts.fj.Run(ts.sumFid, 0, uint64(ts.n), uint64(ts.out))
	if !done {
		t.Fatal("computation did not complete")
	}
	return ts.m.Mem.Read(ts.out)
}

func (ts *treeSum) checkClean(t *testing.T) {
	t.Helper()
	if v := ts.m.WARViolations(); len(v) != 0 {
		t.Errorf("WAR violations: %v", v)
	}
	l := ts.fj.Scheduler().Layout()
	for p := 0; p < ts.m.P(); p++ {
		if err := l.Read(ts.m.Mem, p).CheckShape(); err != nil {
			t.Errorf("deque %d shape: %v", p, err)
		}
	}
}

func TestTreeSumSingleProcFaultless(t *testing.T) {
	ts := newTreeSum(machine.Config{P: 1, Check: true, StrictCheck: true}, 256, 16)
	if got := ts.run(t); got != ts.expected() {
		t.Errorf("sum = %d, want %d", got, ts.expected())
	}
	ts.checkClean(t)
}

func TestTreeSumMultiProcFaultless(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			ts := newTreeSum(machine.Config{P: p, Check: true}, 512, 16)
			if got := ts.run(t); got != ts.expected() {
				t.Errorf("sum = %d, want %d", got, ts.expected())
			}
			ts.checkClean(t)
			s := ts.m.Stats.Summarize()
			if p > 1 && s.Steals == 0 {
				t.Logf("note: no steals occurred at P=%d (legal but unusual)", p)
			}
		})
	}
}

func TestTreeSumSoftFaults(t *testing.T) {
	for _, f := range []float64{0.001, 0.01, 0.05} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("f=%v/seed=%d", f, seed), func(t *testing.T) {
				ts := newTreeSum(machine.Config{
					P: 4, Check: true, Seed: seed,
					Injector: fault.NewIID(4, f, seed),
				}, 256, 16)
				if got := ts.run(t); got != ts.expected() {
					t.Errorf("sum = %d, want %d", got, ts.expected())
				}
				ts.checkClean(t)
			})
		}
	}
}

// victimsFirst hard-faults each victim once, at its ordinal, as a Script's
// Hard entries would, and makes those deaths fire on a host with fewer cores
// than processors. Processors are goroutines, so a victim the Go
// scheduler has not run yet may reach none of its fault points before the
// survivors finish. Until every victim has reached its ordinal, a survivor
// sleeps briefly at each of its fault points. Which accesses fault is
// unchanged.
type victimsFirst struct {
	dieAt map[int]int64
	mu    sync.Mutex
	count map[int]int64
	fired int
}

func newVictimsFirst(dieAt map[int]int64) *victimsFirst {
	return &victimsFirst{dieAt: dieAt, count: map[int]int64{}}
}

func (v *victimsFirst) At(proc int) fault.Kind {
	v.mu.Lock()
	n := v.count[proc]
	v.count[proc] = n + 1
	die, victim := v.dieAt[proc]
	hit := victim && n == die
	if hit {
		v.fired++
	}
	wait := !victim && v.fired < len(v.dieAt)
	v.mu.Unlock()
	if wait {
		time.Sleep(50 * time.Microsecond)
	}
	if hit {
		return fault.Hard
	}
	return fault.None
}

func TestTreeSumHardFaults(t *testing.T) {
	// Kill two of four processors mid-run; survivors must finish via
	// local-entry steals and capsule takeover. The victims are idle thieves,
	// hence victimsFirst.
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := newVictimsFirst(map[int]int64{1: int64(20 + seed*13), 3: int64(30 + seed*7)})
			ts := newTreeSum(machine.Config{P: 4, Check: true, Seed: seed, Injector: inj}, 512, 16)
			if got := ts.run(t); got != ts.expected() {
				t.Errorf("sum = %d, want %d", got, ts.expected())
			}
			s := ts.m.Stats.Summarize()
			if s.Dead == 0 {
				t.Error("no processor died; fault schedule never fired")
			}
			ts.checkClean(t)
		})
	}
}

func TestTreeSumRootProcDies(t *testing.T) {
	// Even the processor running the root thread may die; its in-progress
	// capsule must be taken over via the local-entry steal path.
	inj := fault.NewScript().Add(0, 25, fault.Hard)
	ts := newTreeSum(machine.Config{P: 4, Check: true, Injector: inj}, 512, 16)
	if got := ts.run(t); got != ts.expected() {
		t.Errorf("sum = %d, want %d", got, ts.expected())
	}
	if ts.m.Live.IsLive(0) {
		t.Error("proc 0 should be dead")
	}
	ts.checkClean(t)
}

func TestTreeSumSoftAndHardFaults(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := fault.First{fault.NewScript().Add(2, int64(150+seed*31), fault.Hard),
				fault.NewIID(4, 0.01, seed)}
			ts := newTreeSum(machine.Config{P: 4, Check: true, Seed: seed, Injector: inj}, 256, 8)
			if got := ts.run(t); got != ts.expected() {
				t.Errorf("sum = %d, want %d", got, ts.expected())
			}
			ts.checkClean(t)
		})
	}
}

// TestTreeDequeTransitionsValid checks the deque protocol of Figures 3–4 on
// the fork-join tree: every entry rewrite across the run, under soft faults
// and with processor P−1 hard-faulting at its 400th access, must follow the
// Figure 4 transition table (plus the Lemma A.12 exception), and the run
// must end with every deque shape-valid and the right sum.
func TestTreeDequeTransitionsValid(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, f := range []float64{0, 0.01} {
			t.Run(fmt.Sprintf("P=%d/f=%v", p, f), func(t *testing.T) {
				seed := uint64(p)*7 + 1
				var base fault.Injector = fault.NoFaults{}
				if f > 0 {
					base = fault.NewIID(p, f, seed)
				}
				inj := fault.First{fault.NewScript().Add(p-1, 400, fault.Hard), base}
				ts := newTreeSum(machine.Config{P: p, Check: true, Seed: seed, Injector: inj}, 2048, 32)
				l := ts.fj.Scheduler().Layout()
				isEntry := map[pmem.Addr]bool{}
				for q := 0; q < p; q++ {
					for i := 0; i < l.Entries; i++ {
						isEntry[l.EntryAddr(q, i)] = true
					}
				}
				var mu sync.Mutex
				var rewrites int
				var bad []string
				ts.m.Mem.SetWatcher(func(a pmem.Addr, old, new uint64) {
					if !isEntry[a] {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					rewrites++
					if !deque.ValidTransition(old, new) {
						bad = append(bad, fmt.Sprintf("entry %d: %s(tag %d) -> %s(tag %d)",
							a, deque.StateOf(old), deque.Tag(old), deque.StateOf(new), deque.Tag(new)))
					}
				})
				if got := ts.run(t); got != ts.expected() {
					t.Errorf("sum = %d, want %d", got, ts.expected())
				}
				ts.checkClean(t)
				s := ts.m.Stats.Summarize()
				t.Logf("steals %d, entry rewrites %d, invalid %d, dead %d", s.Steals, rewrites, len(bad), s.Dead)
				if len(bad) != 0 {
					t.Errorf("invalid deque transitions:\n%v", bad)
				}
			})
		}
	}
}

func TestTreeSumDeepRecursion(t *testing.T) {
	// Leaf size 1 stresses fork/join density (n-1 joins for n leaves).
	ts := newTreeSum(machine.Config{P: 4, Check: true, Seed: 5,
		Injector: fault.NewIID(4, 0.005, 77)}, 64, 1)
	if got := ts.run(t); got != ts.expected() {
		t.Errorf("sum = %d, want %d", got, ts.expected())
	}
	ts.checkClean(t)
}

func TestWorkIncreasesWithFaultRate(t *testing.T) {
	// Use P=1: at P>1 total work includes idle-processor steal-loop churn,
	// which varies with scheduling and can mask the fault overhead.
	work := func(f float64) int64 {
		var inj fault.Injector = fault.NoFaults{}
		if f > 0 {
			inj = fault.NewIID(1, f, 3)
		}
		ts := newTreeSum(machine.Config{P: 1, Injector: inj, Seed: 3}, 256, 16)
		ts.run(t)
		return ts.m.Stats.Summarize().Work
	}
	w0 := work(0)
	w1 := work(0.02)
	if w1 <= w0 {
		t.Errorf("Wf (%d) not above W (%d)", w1, w0)
	}
}

func TestAllProcessorsHalt(t *testing.T) {
	// Run() returning at all proves halting, but also verify the restart
	// pointers are HaltWord for live procs.
	ts := newTreeSum(machine.Config{P: 4}, 128, 16)
	ts.run(t)
	for p := 0; p < 4; p++ {
		if rp := ts.m.Mem.Read(ts.m.RestartAddr(p)); rp != machine.HaltWord {
			t.Errorf("proc %d restart pointer = %#x, want HaltWord", p, rp)
		}
	}
}
