package native

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/capsule"
	"repro/internal/pmem"
)

// TestDequeStealHalf checks the batch-grab semantics on a quiet deque: half
// of the resident tasks (rounded up, capped by max) move in one grab, the
// first is returned for execution, the rest land in the thief's deque in
// steal (FIFO) order, and the victim keeps the newer half.
func TestDequeStealHalf(t *testing.T) {
	d := newDeque(8)
	dst := newDeque(8)
	ts := make([]*task, 10)
	for i := range ts {
		ts[i] = &task{args: []uint64{uint64(i)}}
		d.push(ts[i])
	}
	first, got := d.stealHalf(dst, 64)
	if first != ts[0] || got != 5 {
		t.Fatalf("stealHalf = (%v, %d), want task 0 and 5", first, got)
	}
	// The extras are the next-oldest tasks, pushed in age order.
	if dst.size() != 4 {
		t.Fatalf("thief deque holds %d tasks, want 4", dst.size())
	}
	for i := 1; i < 5; i++ {
		if tk := dst.popTop(); tk != ts[i] {
			t.Fatalf("thief slot = %v, want task %d", tk.args, i)
		}
	}
	// The victim keeps tasks 5..9, still in LIFO order for its owner.
	for i := 9; i >= 5; i-- {
		if tk := d.popBottom(); tk != ts[i] {
			t.Fatalf("victim popBottom = %v, want task %d", tk, i)
		}
	}
	if d.popBottom() != nil {
		t.Fatal("victim deque should be empty")
	}

	// The cap bounds the grab; an empty deque yields nothing.
	for i := range ts {
		d.push(ts[i])
	}
	if first, got := d.stealHalf(dst, 2); first != ts[0] || got != 2 {
		t.Fatalf("capped stealHalf = (%v, %d), want task 0 and 2", first, got)
	}
	empty := newDeque(8)
	if first, got := empty.stealHalf(dst, 8); first != nil || got != 0 {
		t.Fatalf("stealHalf from empty deque = (%v, %d)", first, got)
	}
}

// TestDequeStealHalfOwnerRace hammers batch thieves against an owner that
// pushes and pops concurrently: every task must be delivered exactly once.
// This is the regression test for the reason stealHalf claims entries with
// per-entry CASes — a single CAS of top -> top+k would double-deliver
// entries the owner plain-took while the claim was in flight.
func TestDequeStealHalfOwnerRace(t *testing.T) {
	const total = 200_000
	d := newDeque(64)
	var stolen atomic.Int64
	var wg sync.WaitGroup
	stop := atomic.Bool{}
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := newDeque(64)
			for !stop.Load() {
				first, got := d.stealHalf(mine, 8)
				if first == nil {
					continue
				}
				n := int64(1)
				for mine.popBottom() != nil {
					n++
				}
				if int(n) != got {
					t.Errorf("batch reported %d tasks, drained %d", got, n)
					return
				}
				stolen.Add(n)
			}
		}()
	}
	popped := 0
	for i := 0; i < total; i++ {
		d.push(&task{})
		// Interleave owner pops so bottom chases the thieves' top claims.
		if i%3 == 0 {
			if tk := d.popBottom(); tk != nil {
				popped++
			}
		}
	}
	for {
		tk := d.popBottom()
		if tk == nil && d.size() == 0 {
			break
		}
		if tk != nil {
			popped++
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := stolen.Load() + int64(popped); got != total {
		t.Fatalf("delivered %d of %d tasks", got, total)
	}
}

// TestDequeGrowthUnderBatchTheft is the batch-stealing variant of
// TestDequeGrowthUnderTheft: the ring grows while thieves grab half-deque
// batches, and every task must be obtained by exactly one side even when a
// thief resolves its claims against a superseded buffer. Run under -race
// this also validates the publication protocol of the hoisted buffer load.
func TestDequeGrowthUnderBatchTheft(t *testing.T) {
	const total = 50_000
	d := newDeque(8) // tiny initial ring: forces many growths mid-theft
	var stolen atomic.Int64
	var wg sync.WaitGroup
	stop := atomic.Bool{}
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := newDeque(8)
			for !stop.Load() {
				if first, _ := d.stealHalf(mine, 16); first != nil {
					n := int64(1)
					for mine.popBottom() != nil {
						n++
					}
					stolen.Add(n)
				}
			}
		}()
	}
	popped := 0
	for i := 0; i < total; i++ {
		d.push(&task{})
		if i%17 == 0 {
			if tk := d.popBottom(); tk != nil {
				popped++
			}
		}
	}
	for {
		tk := d.popBottom()
		if tk == nil && d.size() == 0 {
			break
		}
		if tk != nil {
			popped++
		}
	}
	stop.Store(true)
	wg.Wait()
	for tk := d.popTop(); tk != nil; tk = d.popTop() {
		stolen.Add(1)
	}
	if got := stolen.Load() + int64(popped); got != total {
		t.Fatalf("delivered %d of %d tasks", got, total)
	}
}

// treeSum runs the canonical fork-join sum on rt and reports whether the
// answer came out right — the shared workload of the scheduler tests below.
func treeSum(t *testing.T, rt *Runtime, n, leaf int) {
	t.Helper()
	in := rt.HeapAllocBlocks(n)
	out := rt.HeapAllocBlocks(1)
	var want uint64
	for i := 0; i < n; i++ {
		rt.MemWrite(in+pmem.Addr(i), uint64(i%97+1))
		want += uint64(i%97 + 1)
	}
	cmb := rt.Register("combine", func(c *Ctx) {
		c.Write(pmem.Addr(c.Arg(2)), c.Read(pmem.Addr(c.Arg(0)))+c.Read(pmem.Addr(c.Arg(1))))
		c.Done()
	})
	var sum capsule.FuncID
	sum = rt.Register("sum", func(c *Ctx) {
		lo, hi, dst := int(c.Arg(0)), int(c.Arg(1)), pmem.Addr(c.Arg(2))
		if hi-lo <= leaf {
			var acc uint64
			for _, v := range c.Slice(in, lo, hi) {
				acc += v
			}
			c.Write(dst, acc)
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		s := c.Alloc(2)
		c.Fork(
			sum, capsule.ArgsOf(uint64(lo), uint64(mid), uint64(s)),
			sum, capsule.ArgsOf(uint64(mid), uint64(hi), uint64(s+1)),
			cmb, capsule.ArgsOf(uint64(s), uint64(s+1), uint64(dst)), true)
	})
	if !rt.Run(sum, 0, uint64(n), uint64(out)) {
		t.Fatal("run did not complete")
	}
	if got := rt.MemRead(out); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// rendezvous runs `rounds` sequential fork pairs on rt where the two sides
// spin-wait on each other's flag word. The forking worker executes one side
// and holds the other in its deque, so each round can only complete after a
// thief steals the parked side — forcing at least `rounds` steals even when
// GOMAXPROCS serializes the workers.
func rendezvous(t *testing.T, rt *Runtime, rounds int) {
	t.Helper()
	flags := rt.HeapAllocBlocks(2 * rounds)
	side := rt.Register("side", func(c *Ctx) {
		mine, theirs := pmem.Addr(c.Arg(0)), pmem.Addr(c.Arg(1))
		c.Write(mine, 1)
		for c.Read(theirs) == 0 {
			runtime.Gosched()
		}
		c.Done()
	})
	var pair capsule.FuncID
	pair = rt.Register("pair", func(c *Ctx) {
		r := int(c.Arg(0))
		a := flags + pmem.Addr(2*r)
		c.Fork(
			side, capsule.ArgsOf(uint64(a), uint64(a+1)),
			side, capsule.ArgsOf(uint64(a+1), uint64(a)),
			0, capsule.Args{}, false)
	})
	fids := make([]capsule.FuncID, rounds)
	argss := make([]capsule.Args, rounds)
	for r := 0; r < rounds; r++ {
		fids[r] = pair
		argss[r] = capsule.ArgsOf(uint64(r))
	}
	seq := rt.Register("seq", func(c *Ctx) { c.Seq(fids, argss) })
	if !rt.Run(seq) {
		t.Fatal("rendezvous run did not complete")
	}
	for r := 0; r < 2*rounds; r++ {
		if rt.MemRead(flags+pmem.Addr(r)) != 1 {
			t.Fatalf("flag %d not set", r)
		}
	}
}

// TestSchedStatsCounters checks the SchedStats invariants on a P=8 run whose
// rendezvous structure forces real task migration: grabs imply probes, and
// batch sizes count at least one task per grab and at most the steal cap.
func TestSchedStatsCounters(t *testing.T) {
	const rounds = 16
	rt := New(Config{P: 8, MemWords: 1 << 20, Seed: 7})
	rendezvous(t, rt, rounds)
	s := rt.SchedStats()
	if s.Steals < rounds {
		t.Fatalf("expected at least %d steals, got %+v", rounds, s)
	}
	if s.StealTries < s.Steals {
		t.Errorf("StealTries (%d) < Steals (%d)", s.StealTries, s.Steals)
	}
	if s.BatchTasks < s.Steals || s.BatchTasks > s.Steals*stealBatch {
		t.Errorf("BatchTasks (%d) outside [Steals, Steals*stealBatch] = [%d, %d]",
			s.BatchTasks, s.Steals, s.Steals*stealBatch)
	}
	// The summary's steal counters stay consistent with the sched view.
	sum := rt.Stats()
	if sum.Steals != s.Steals || sum.StealTries != s.StealTries {
		t.Errorf("Stats steals (%d/%d) disagree with SchedStats (%d/%d)",
			sum.Steals, sum.StealTries, s.Steals, s.StealTries)
	}
}

// TestOversubscribedScheduler runs more workers than GOMAXPROCS allows to
// execute in parallel: thieves must park instead of live-locking the workers
// that hold the work, and the computation must still complete correctly —
// both on a plain tree sum and on a rendezvous workload whose progress
// depends on parked thieves waking up to steal.
func TestOversubscribedScheduler(t *testing.T) {
	p := 3*runtime.GOMAXPROCS(0) + 1
	rt := New(Config{P: p, MemWords: 1 << 20, Seed: 5})
	treeSum(t, rt, 1<<14, 16)
	rt = New(Config{P: p, MemWords: 1 << 20, Seed: 6})
	rendezvous(t, rt, 8)
	if s := rt.SchedStats(); s.Steals < 8 {
		t.Errorf("expected >=8 steals with P=%d oversubscribed, got %+v", p, s)
	}
}

// TestDequeHeadersOwnTheirLines: every worker's deque header fills one
// 64-byte cache line of its own, so no two workers' pushes, pops and steals
// write the same line.
func TestDequeHeadersOwnTheirLines(t *testing.T) {
	if size := unsafe.Sizeof(deque{}); size != 64 {
		t.Fatalf("deque header is %d bytes, want 64: one cache line", size)
	}
	rt := New(Config{P: 8, MemWords: 1 << 16})
	defer rt.Close()
	lines := map[uintptr]int{}
	for _, w := range rt.workers {
		a := uintptr(unsafe.Pointer(w.dq))
		if a%64 != 0 {
			t.Errorf("worker %d deque header at %#x is not line-aligned", w.id, a)
		}
		if other, ok := lines[a/64]; ok {
			t.Errorf("workers %d and %d deque headers share line %#x", other, w.id, a/64*64)
		}
		lines[a/64] = w.id
	}
	// Every spawn reads the sleepers count: it shares no line with done,
	// which every idle probe reads, or with a deque header.
	if size := unsafe.Sizeof(*rt.sleepers); size != 64 {
		t.Fatalf("sleepers counter is %d bytes, want 64: one cache line", size)
	}
	s := uintptr(unsafe.Pointer(rt.sleepers))
	if s%64 != 0 {
		t.Errorf("sleepers counter at %#x is not line-aligned", s)
	}
	if other, ok := lines[s/64]; ok {
		t.Errorf("sleepers counter shares line %#x with worker %d's deque header", s/64*64, other)
	}
	if d := uintptr(unsafe.Pointer(&rt.done)); d/64 == s/64 {
		t.Errorf("sleepers counter shares line %#x with done", s/64*64)
	}
}

// phases registers a program of rounds Seq phases, each a 16-leaf
// parallel for followed by a serial capsule that busy-waits for serial.
// During the serial stretch every other worker runs out of work, spins
// through its window and parks; the next phase's spawns, or the end of the
// run after the last one, must wake it. The program stamps the clock, as
// an offset from base, when each parallel for starts (stamps[r]) and when
// the last serial stretch ends (stamps[rounds]).
type phases struct {
	root   capsule.FuncID
	base   time.Time
	stamps []atomic.Int64
}

func newPhases(rt *Runtime, rounds int, serial time.Duration) *phases {
	ph := &phases{base: time.Now(), stamps: make([]atomic.Int64, rounds+1)}
	out := rt.HeapAllocBlocks(16)
	leaf := rt.Register("leaf", func(c *Ctx) {
		for i := int(c.Arg(0)); i < int(c.Arg(1)); i++ {
			c.Write(out+pmem.Addr(i), uint64(i))
		}
		c.Done()
	})
	wide := rt.Register("wide", func(c *Ctx) {
		ph.stamps[c.Arg(0)].Store(int64(time.Since(ph.base)))
		c.ParallelFor(leaf, 0, 16, 1, 0, 0)
	})
	busy := rt.Register("busy", func(c *Ctx) {
		for start := time.Now(); time.Since(start) < serial; {
		}
		ph.stamps[rounds].Store(int64(time.Since(ph.base)))
		c.Done()
	})
	fids := make([]capsule.FuncID, 0, 2*rounds)
	argss := make([]capsule.Args, 0, 2*rounds)
	for r := 0; r < rounds; r++ {
		fids = append(fids, wide, busy)
		argss = append(argss, capsule.ArgsOf(uint64(r)), capsule.Args{})
	}
	ph.root = rt.Register("phases", func(c *Ctx) { c.Seq(fids, argss) })
	return ph
}

// maxGap returns the longest stretch of the last run, from start through
// each stamp in turn, in which no spawn or run end could wake a parked
// worker: a worker parked longer than that missed a wake.
func (ph *phases) maxGap(start time.Duration) time.Duration {
	var gap time.Duration
	prev := start
	for i := range ph.stamps {
		at := time.Duration(ph.stamps[i].Load())
		gap = max(gap, at-prev)
		prev = at
	}
	return gap
}

// parkState fails t unless every worker is off the sleepers count with its
// flag clear and its token channel empty — the state the wake protocol
// must leave behind at the end of every run.
func parkState(t *testing.T, rt *Runtime) {
	t.Helper()
	if n := rt.sleepers.n.Load(); n != 0 {
		t.Errorf("sleepers = %d after the run, want 0", n)
	}
	for _, w := range rt.workers {
		if w.parked.Load() || len(w.wake) != 0 {
			t.Errorf("worker %d: parked = %v, %d tokens queued after the run",
				w.id, w.parked.Load(), len(w.wake))
		}
	}
}

func fallbacks(rt *Runtime) int64 {
	var n int64
	for _, w := range rt.workers {
		n += w.fallbacks
	}
	return n
}

// TestParkWakesWithoutFallback runs many programs whose 100 µs serial
// stretches park the idle workers, and which last longer than parkFallback
// in all: every park must end on a token — from a spawn of the next phase
// or from the end of the run — never on the fallback timer. A lost wake, on
// the spawn path or at run end, shows up as a fallback expiry. A run in
// which the host stalled the busy worker for 3/4 of the fallback or more is
// not held to that, since its parks may legitimately expire; most runs
// must be free of such stalls.
func TestParkWakesWithoutFallback(t *testing.T) {
	const runs, rounds = 40, 24
	for _, p := range []int{2, 4} {
		rt := New(Config{P: p, MemWords: 1 << 16, Seed: uint64(p)})
		ph := newPhases(rt, rounds, 100*time.Microsecond)
		clean := 0
		for i := 0; i < runs; i++ {
			before := fallbacks(rt)
			start := time.Since(ph.base)
			if ok, err := rt.TryRun(ph.root); !ok || err != nil {
				t.Fatalf("P=%d run %d: TryRun = (%v, %v)", p, i, ok, err)
			}
			parkState(t, rt)
			if gap := ph.maxGap(start); gap >= parkFallback*3/4 {
				t.Logf("P=%d run %d: the host stalled it for %v; not counted", p, i, gap)
				continue
			}
			clean++
			if n := fallbacks(rt) - before; n != 0 {
				t.Errorf("P=%d run %d: %d parks ended on the fallback timer, want 0", p, i, n)
			}
		}
		parks := rt.SchedStats().Parks
		t.Logf("P=%d: %d parks, %d of %d runs counted", p, parks, clean, runs)
		if parks == 0 {
			t.Errorf("P=%d: no worker parked; the serial stretches exercise nothing", p)
		}
		if clean < runs/2 {
			t.Errorf("P=%d: only %d of %d runs free of host stalls", p, clean, runs)
		}
		rt.Close()
	}
}

// TestRunEndWakesParkedWorkers ends a run on a long serial capsule, which
// holds until every other worker is parked: the root's completion must wake
// them all, the run return, and the next TryRun find the runtime free.
func TestRunEndWakesParkedWorkers(t *testing.T) {
	const p = 4
	rt := New(Config{P: p, MemWords: 1 << 16, Seed: 9})
	defer rt.Close()
	short := newPhases(rt, 1, 100*time.Microsecond).root
	last := rt.Register("last", func(c *Ctx) {
		start := time.Now()
		for rt.sleepers.n.Load() != p-1 || time.Since(start) < 10*parkFallback {
			if time.Since(start) > 10*time.Second {
				panic("the idle workers never all parked")
			}
		}
		c.Done()
	})
	root := rt.Register("root", func(c *Ctx) {
		c.Seq([]capsule.FuncID{short, last}, []capsule.Args{{}, {}})
	})
	for i := 0; i < 5; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := rt.TryRun(root)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d never returned", i)
		}
		parkState(t, rt)
		if ok, err := rt.TryRun(short); !ok || err != nil {
			t.Fatalf("TryRun after run %d = (%v, %v), want (true, nil)", i, ok, err)
		}
	}
}

// TestTryStealSweepsEveryVictim checks that one trySteal call reaches every
// other worker, whichever of them holds the only task: at P = 8, from each
// of many random sweep starts, a single sweep finds the task within P-1
// probes and never probes the thief itself.
func TestTryStealSweepsEveryVictim(t *testing.T) {
	const p, rounds = 8, 32
	rt := New(Config{P: p, MemWords: 1 << 16, Seed: 3})
	thief := rt.workers[0]
	for i := 0; i < rounds*(p-1); i++ {
		v := 1 + i%(p-1)
		want := &task{}
		rt.workers[v].dq.push(want)
		tries := thief.stealTries
		if got := thief.trySteal(); got != want {
			t.Fatalf("task on worker %d: trySteal returned %p, want %p", v, got, want)
		}
		if n := thief.stealTries - tries; n < 1 || n > p-1 {
			t.Errorf("task on worker %d found after %d probes, want 1..%d", v, n, p-1)
		}
		for q, w := range rt.workers {
			if n := w.dq.size(); n != 0 {
				t.Errorf("worker %d deque holds %d tasks after the steal, want 0", q, n)
			}
		}
	}
	thief.dq.push(&task{})
	if got := thief.trySteal(); got != nil {
		t.Errorf("trySteal took a task from the thief's own deque")
	}
	if s := rt.SchedStats(); s.Steals != rounds*(p-1) || s.BatchTasks != rounds*(p-1) {
		t.Errorf("SchedStats = %+v, want %d single-task steals", s, rounds*(p-1))
	}
}
