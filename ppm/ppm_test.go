package ppm_test

import (
	"testing"

	"repro/ppm"
)

// TestTreeSumUnderFaults is the quickstart program as a regression test: a
// parallel tree sum under a 1% soft-fault rate plus one hard processor
// failure must produce the exact answer with no write-after-read conflicts.
// Proc 0 is the one killed, at an access it always reaches: it starts the
// root thread, and over 600 runs of this program it made 258 accesses at the
// fewest (the median is ≈ 3 800), so its 400th could come after the run.
func TestTreeSumUnderFaults(t *testing.T) {
	const (
		n    = 4096
		leaf = 64
	)
	rt := ppm.New(
		ppm.WithProcs(4),
		ppm.WithFaultRate(0.01),
		ppm.WithHardFault(0, 100),
		ppm.WithSeed(42),
		ppm.WithWARCheck(),
	)

	in := rt.NewArray(n)
	vals := make([]uint64, n)
	var want uint64
	for i := range vals {
		vals[i] = uint64(i)
		want += uint64(i)
	}
	in.Load(vals)
	out := rt.NewArray(1)

	combine := rt.Register("combine", func(c ppm.Ctx) {
		l := c.Read(c.Addr(0))
		r := c.Read(c.Addr(1))
		c.Write(c.Addr(2), l+r)
		c.Done()
	})
	var sum ppm.FuncRef
	sum = rt.Register("sum", func(c ppm.Ctx) {
		lo, hi, dst := c.Int(0), c.Int(1), c.Addr(2)
		if hi-lo <= leaf {
			var acc uint64
			for _, v := range in.Slice(c, lo, hi) {
				acc += v
			}
			c.Write(dst, acc)
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		s := c.Alloc(2)
		c.ForkThen(
			sum.Call(lo, mid, s.At(0)),
			sum.Call(mid, hi, s.At(1)),
			combine.Call(s.At(0), s.At(1), dst))
	})

	if !rt.Run(sum, 0, n, out.At(0)) {
		t.Fatal("every processor died before completion")
	}
	if got := out.Snapshot()[0]; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	s := rt.Stats()
	if s.SoftFaults == 0 {
		t.Error("expected soft faults to be injected")
	}
	if s.Dead != 1 {
		t.Errorf("dead processors = %d, want 1", s.Dead)
	}
	if v := rt.WARViolations(); len(v) != 0 {
		t.Errorf("WAR violations: %v", v)
	}
}

// TestOptionDefaults checks New's documented defaults and option plumbing.
func TestOptionDefaults(t *testing.T) {
	rt := ppm.New()
	if got := rt.Procs(); got != 1 {
		t.Errorf("default procs = %d, want 1", got)
	}
	if got := rt.BlockWords(); got != 8 {
		t.Errorf("default block words = %d, want 8", got)
	}

	for _, eng := range []ppm.Engine{ppm.EngineModel, ppm.EngineNative} {
		rt2 := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(3))
		if got := rt2.Procs(); got != 3 {
			t.Errorf("%s: procs = %d, want 3", eng, got)
		}
		if got := rt2.BlockWords(); got != 8 {
			t.Errorf("%s: block words = %d, want 8", eng, got)
		}
		rt2.Close()
	}
}

// TestScriptedSoftFault: WithSoftFaultAt replays a capsule. A
// read-increment-write capsule is deliberately WAR-conflicted, so one
// scripted fault makes the increment double-apply — the Theorem 3.1
// converse, now observable through the public API.
func TestScriptedSoftFault(t *testing.T) {
	rt := ppm.New(ppm.WithSoftFaultAt(0, 4))
	cell := rt.NewArray(1)
	incr := rt.Register("incr", func(c ppm.Ctx) {
		v := c.Read(cell.At(0))
		//ppm:allow warfree this test plants the WAR conflict to observe the double-apply
		c.Write(cell.At(0), v+1)
		c.Halt()
	})
	rt.RunOnAll(incr)
	if got := cell.Snapshot()[0]; got != 2 {
		t.Errorf("faulted WAR increment = %d, want 2 (double-applied)", got)
	}
	if rt.Stats().SoftFaults != 1 {
		t.Errorf("soft faults = %d, want 1", rt.Stats().SoftFaults)
	}
}

// TestArrayRoundTrip: Load/Snapshot round-trips, At spacing for packed and
// block arrays, and capsule-side Get/Set/Slice/SetRange agreement.
func TestArrayRoundTrip(t *testing.T) {
	rt := ppm.New()
	a := rt.NewArray(100)
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i * 7)
	}
	a.Load(vals)
	got := a.Snapshot()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("round trip [%d] = %d, want %d", i, got[i], vals[i])
		}
	}
	if a.At(1)-a.At(0) != 1 {
		t.Errorf("packed array stride = %d, want 1", a.At(1)-a.At(0))
	}

	b := rt.NewBlockArray(4)
	if d := b.At(1) - b.At(0); d != ppm.Addr(rt.BlockWords()) {
		t.Errorf("block array stride = %d, want %d", d, rt.BlockWords())
	}

	// Capsule-side accessors: copy a into dst via Slice/SetRange, bump a
	// block-array slot with Set/Get.
	dst := rt.NewArray(100)
	cp := rt.Register("copy", func(c ppm.Ctx) {
		buf := make([]uint64, 100)
		for i, v := range a.Slice(c, 0, 100) {
			buf[i] = v + 1
		}
		dst.SetRange(c, 0, buf)
		b.Set(c, 3, b.Get(c, 2)+41)
		c.Halt()
	})
	rt.RunOnAll(cp)
	got = dst.Snapshot()
	for i := range vals {
		if got[i] != vals[i]+1 {
			t.Fatalf("capsule copy [%d] = %d, want %d", i, got[i], vals[i]+1)
		}
	}
	if v := b.Snapshot()[3]; v != 41 {
		t.Errorf("block slot = %d, want 41", v)
	}
}

// TestParallelFor drives the fork-join tree through the typed API.
func TestParallelFor(t *testing.T) {
	const n = 500
	rt := ppm.New(ppm.WithProcs(4), ppm.WithFaultRate(0.005), ppm.WithSeed(7))
	out := rt.NewArray(n)
	body := rt.Register("body", func(c ppm.Ctx) {
		lo, hi, mul := c.Int(0), c.Int(1), c.Uint(2)
		vals := make([]uint64, hi-lo)
		for i := range vals {
			vals[i] = uint64(lo+i) * mul
		}
		out.SetRange(c, lo, vals)
		c.Done()
	})
	root := rt.Register("root", func(c ppm.Ctx) {
		c.ParallelFor(body, 0, n, 16, 3)
	})
	if !rt.Run(root) {
		t.Fatal("did not complete")
	}
	got := out.Snapshot()
	for i := range got {
		if got[i] != uint64(i*3) {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], i*3)
		}
	}
}

// TestCatalog builds, runs, and verifies every catalog workload on a small
// faulty machine — the uniform-driver path the benchmarks use.
func TestCatalog(t *testing.T) {
	for _, spec := range ppm.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			n := 1 << 10
			if spec.Name == "matmul" {
				n = 16
			}
			rt := ppm.New(
				ppm.WithProcs(2),
				ppm.WithFaultRate(0.002),
				ppm.WithSeed(5),
				ppm.WithEphWords(1<<13),
				ppm.WithMemWords(1<<24),
				ppm.WithPoolWords(1<<21),
			)
			algo := spec.New("t", n, 9)
			algo.Build(rt)
			if !algo.Run() {
				t.Fatal("did not complete")
			}
			if err := algo.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
