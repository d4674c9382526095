package native

import (
	"errors"
	"math"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/capsule"
	"repro/internal/durable"
	"repro/internal/pmem"
)

// failMsync makes the k-th msync call from now (1-based) return errno instead
// of reaching the kernel, until the test ends.
func failMsync(t *testing.T, k int64, errno syscall.Errno) {
	real := durable.Msync
	var calls atomic.Int64
	durable.Msync = func(addr, length, flags uintptr) syscall.Errno {
		if calls.Add(1) == k {
			return errno
		}
		return real(addr, length, flags)
	}
	t.Cleanup(func() { durable.Msync = real })
}

// pingPong is a root chain with cross-phase write-after-read: step i reads
// buffer i%2 and overwrites buffer (i+1)%2, which step i-1 read. Re-entering
// the chain anywhere but at the committed index is therefore not bit-exact,
// which is what makes it a test of the commit discipline.
type pingPong struct {
	root capsule.FuncID
	buf  [2]pmem.Addr
}

const pingPongN = 2048

// buildPingPong registers the program with `steps` chain steps (steps-1
// phase commits); a single step is a bare ParallelFor with no chain.
func buildPingPong(rt *Runtime, steps int) pingPong {
	var pp pingPong
	pp.buf[0] = rt.HeapAllocBlocks(pingPongN)
	pp.buf[1] = rt.HeapAllocBlocks(pingPongN)
	for i := 0; i < pingPongN; i++ {
		rt.MemWrite(pp.buf[0]+pmem.Addr(i), uint64(i))
	}
	leaf := rt.Register("leaf", func(c *Ctx) {
		lo, hi, step := int(c.Arg(0)), int(c.Arg(1)), c.Arg(2)
		src, dst := pp.buf[step%2], pp.buf[(step+1)%2]
		for i := lo; i < hi; i++ {
			c.Write(dst+pmem.Addr(i), c.Read(src+pmem.Addr(i))*3+step+1)
		}
		c.Done()
	})
	step := rt.Register("step", func(c *Ctx) { c.ParallelFor(leaf, 0, pingPongN, 16, c.Arg(0), 0) })
	pp.root = rt.Register("root", func(c *Ctx) {
		if steps == 1 {
			c.Then(step, capsule.ArgsOf(0))
			return
		}
		fids := make([]capsule.FuncID, steps)
		args := make([]capsule.Args, steps)
		for i := range fids {
			fids[i], args[i] = step, capsule.ArgsOf(uint64(i))
		}
		c.Seq(fids, args)
	})
	return pp
}

// check compares the final buffer against the host-side recurrence.
func (pp pingPong) check(t *testing.T, rt *Runtime, steps int) {
	t.Helper()
	out := pp.buf[steps%2]
	for i := 0; i < pingPongN; i++ {
		want := uint64(i)
		for s := 0; s < steps; s++ {
			want = want*3 + uint64(s) + 1
		}
		if got := rt.MemRead(out + pmem.Addr(i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestDurableBarrierCount is the exact count behind "no syscall at a capsule
// boundary": a durable run with K root-chain phase commits issues 3 + 2K
// MS_SYNC barriers (begin; data and index per commit; data and state at the
// end) and not one msync of any other kind, while every capsule still commits
// its persistence point.
func TestDurableBarrierCount(t *testing.T) {
	for _, steps := range []int{1, 2, 7} {
		rt := New(Config{P: 2, MemWords: 1 << 16, Seed: 5,
			DurablePath: filepath.Join(t.TempDir(), "count.region")})
		pp := buildPingPong(rt, steps)

		real := durable.Msync
		var calls atomic.Int64
		durable.Msync = func(addr, length, flags uintptr) syscall.Errno {
			calls.Add(1)
			return real(addr, length, flags)
		}
		before := rt.region.Syncs()
		ok := rt.Run(pp.root)
		durable.Msync = real
		if !ok {
			t.Fatal("run did not complete")
		}
		want := int64(3 + 2*(steps-1))
		if got := rt.region.Syncs() - before; got != want {
			t.Errorf("steps=%d: %d barriers, want %d", steps, got, want)
		}
		if got := calls.Load(); got != want {
			t.Errorf("steps=%d: %d msync calls, want %d (barriers only)", steps, got, want)
		}
		caps := rt.Stats().Capsules
		if pts := rt.PersistPoints(); pts != caps || caps < pingPongN/16 {
			t.Errorf("steps=%d: %d persistence points for %d capsules", steps, pts, caps)
		}
		// A worker's epoch word in the file holds its capsule count: each
		// persistence point's one store reached the region.
		var epochs int64
		words := rt.region.Words()
		for w := 0; w < rt.P(); w++ {
			epochs += int64(atomic.LoadUint64(&words[rt.region.PersistBase()+int64(w*rt.region.BlockWords())]))
		}
		if epochs != caps {
			t.Errorf("steps=%d: epoch words sum to %d, want %d", steps, epochs, caps)
		}
		pp.check(t, rt, steps)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBarrierFailureDoesNotCommit fails each barrier of a run in turn. The
// run must stop there with ErrSync, the committed index and run state must
// not claim more than the barriers that returned, the error must stay latched
// on TryRun and Close — and because the run stopped at the boundary, the file
// still recovers bit-exactly once msync works again.
func TestBarrierFailureDoesNotCommit(t *testing.T) {
	const steps = 4
	const barriers = 3 + 2*(steps-1)
	for k := int64(1); k <= barriers; k++ {
		path := filepath.Join(t.TempDir(), "fail.region")
		rt := New(Config{P: 2, MemWords: 1 << 16, Seed: 5, DurablePath: path})
		pp := buildPingPong(rt, steps)
		failMsync(t, k, syscall.EIO)

		ok, err := rt.TryRun(pp.root)
		if ok || !errors.Is(err, ErrSync) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("barrier %d: TryRun = (%v, %v), want ErrSync wrapping EIO", k, ok, err)
		}
		// Barrier 1 begins the run; 2i and 2i+1 are commit i's data and index
		// barriers; the last two finish the run. The index is stored between
		// a commit's two barriers, the done state between the last two.
		wantIdx, wantState := (k-1)/2, uint64(durable.StateRunning)
		if k == barriers {
			wantIdx, wantState = steps-1, durable.StateDone
		}
		if got := rt.region.CommittedIdx(); got != wantIdx {
			t.Errorf("barrier %d: committed index %d, want %d", k, got, wantIdx)
		}
		if got := rt.region.State(); got != wantState {
			t.Errorf("barrier %d: state %d, want %d", k, got, wantState)
		}
		if _, again := rt.TryRun(pp.root); again != err {
			t.Errorf("barrier %d: second TryRun = %v, want the latched %v", k, again, err)
		}
		if cerr := rt.Close(); cerr != err {
			t.Errorf("barrier %d: Close = %v, want the latched %v", k, cerr, err)
		}

		rec, err := Recover(path, Config{Seed: 5})
		if err != nil {
			t.Fatalf("barrier %d: Recover: %v", k, err)
		}
		pp2 := buildPingPong(rec, steps)
		if done, err := rec.Resume(); !done || err != nil {
			t.Fatalf("barrier %d: Resume = (%v, %v)", k, done, err)
		}
		pp2.check(t, rec, steps)
		if err := rec.Close(); err != nil {
			t.Fatalf("barrier %d: Close after resume: %v", k, err)
		}
	}
}

// TestSoftFaultProbability draws maybeFault many times per bulk size n at
// f = 1e-3 and checks the fault count against the model's per-access rule:
// n independent accesses fault with probability 1 − (1 − f)^n. The seed is
// fixed; the tolerance is five binomial standard deviations. Scaling f by n
// instead reads certainty from n = 1 000 on (a capsule that never finishes)
// and fails the n = 1 024 and 4 096 rows by 40 to 240 deviations.
func TestSoftFaultProbability(t *testing.T) {
	const f, trials = 1e-3, 100_000
	rt := New(Config{P: 1, MemWords: 1 << 16, Seed: 5, FaultRate: f})
	defer rt.Close()
	w := rt.workers[0]
	for _, n := range []int64{1, 64, 1024, 4096} {
		before := w.softFaults
		for range trials {
			drawFault(w, n)
		}
		got := float64(w.softFaults - before)
		p := -math.Expm1(float64(n) * math.Log1p(-f))
		want, sigma := trials*p, math.Sqrt(trials*p*(1-p))
		t.Logf("n = %4d: %6.0f faults in %d draws, expected %8.1f ± %.1f", n, got, trials, want, sigma)
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("n = %d: %.0f faults in %d draws, want %.1f ± %.1f (p = %.4f)",
				n, got, trials, want, 5*sigma, p)
		}
	}
}

// drawFault runs one maybeFault trial outside a capsule, absorbing the
// soft-fault panic a hit raises.
func drawFault(w *Ctx, n int64) {
	defer func() {
		if r := recover(); r != nil && r != errSoftFault {
			panic(r)
		}
	}()
	w.maybeFault(n)
}
