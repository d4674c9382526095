package ppm_test

import (
	"fmt"
	"testing"

	"repro/ppm"
	// Importing the graph subsystem registers bfs/cc/pagerank in the
	// catalog, so the cross-engine and fault sweeps below cover them too.
	_ "repro/ppm/graph"
)

// catalogSize picks a small-but-meaningful test size per workload.
func catalogSize(name string) int {
	if name == "matmul" {
		return 16
	}
	return 1 << 10
}

// TestCatalogBothEngines is the proof the engine abstraction is real: every
// catalog workload builds, runs, and verifies on the model engine and on the
// native engine with zero per-algorithm changes.
func TestCatalogBothEngines(t *testing.T) {
	for _, eng := range []ppm.Engine{ppm.EngineModel, ppm.EngineNative} {
		for _, spec := range ppm.Catalog() {
			spec := spec
			t.Run(string(eng)+"/"+spec.Name, func(t *testing.T) {
				rt := ppm.New(
					ppm.WithEngine(eng),
					ppm.WithProcs(4),
					ppm.WithSeed(11),
					ppm.WithMemWords(1<<24),
					ppm.WithPoolWords(1<<21),
				)
				if rt.Engine() != eng {
					t.Fatalf("engine = %q, want %q", rt.Engine(), eng)
				}
				algo := spec.New("both", catalogSize(spec.Name), 21)
				algo.Build(rt)
				if !algo.Run() {
					t.Fatal("did not complete")
				}
				if err := algo.Verify(); err != nil {
					t.Fatal(err)
				}
				if s := rt.Stats(); s.Capsules == 0 || s.Work == 0 {
					t.Errorf("suspicious stats: %+v", s)
				}
			})
		}
	}
}

// TestCatalogFaultSweep runs every catalog workload on the model engine
// under a no-fault, a soft-fault, and a scripted hard-fault injector, and
// asserts Verify passes in all of them — the fault-path coverage the
// tree-sum and sort tests used to carry alone. The native rows run at
// f = 1e-3, ten times the rate the fault-ceiling test holds to 2fC < 1:
// outside the paper's precondition replay may cost e^{fC} attempts, but
// every run must still finish and verify (merge sort at this size once
// livelocked there).
func TestCatalogFaultSweep(t *testing.T) {
	scenarios := []struct {
		name string
		opts []ppm.Option
	}{
		{"nofault", nil},
		{"soft", []ppm.Option{ppm.WithFaultRate(0.003)}},
		{"softscripted", []ppm.Option{ppm.WithSoftFaultAt(0, 100), ppm.WithSoftFaultAt(1, 250)}},
		{"hard", []ppm.Option{ppm.WithHardFault(1, 500), ppm.WithFaultRate(0.001)}},
		{"native/P1/soft", []ppm.Option{ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(1), ppm.WithFaultRate(1e-3)}},
		{"native/P4/soft", []ppm.Option{ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(4), ppm.WithFaultRate(1e-3)}},
	}
	for _, sc := range scenarios {
		for _, spec := range ppm.Catalog() {
			sc, spec := sc, spec
			t.Run(sc.name+"/"+spec.Name, func(t *testing.T) {
				opts := append([]ppm.Option{
					ppm.WithProcs(2),
					ppm.WithSeed(5),
					ppm.WithEphWords(1 << 13),
					ppm.WithMemWords(1 << 24),
					ppm.WithPoolWords(1 << 21),
				}, sc.opts...)
				rt := ppm.New(opts...)
				defer rt.Close()
				algo := spec.New("sweep", catalogSize(spec.Name), 9)
				algo.Build(rt)
				if !algo.Run() {
					t.Fatal("did not complete")
				}
				if err := algo.Verify(); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d soft faults", rt.Stats().SoftFaults)
			})
		}
	}
}

// TestCatalogUnderFaultCeiling holds every catalog workload, on the native
// engine at n = 65 536 (matmul at dimension 64), to the paper's replay
// precondition f < 1/(2C) at f = 1e-4, the highest rate native tests use: C
// is the largest capsule's tracked word accesses, counted on one worker so
// the maximum is exact. Each run must also draw soft faults and still verify.
// The table runs again on four workers, where replays race with steals, and
// those runs must verify.
func TestCatalogUnderFaultCeiling(t *testing.T) {
	const f = 1e-4
	for _, procs := range []int{1, 4} {
		for _, spec := range ppm.Catalog() {
			procs, spec := procs, spec
			t.Run(fmt.Sprintf("P%d/%s", procs, spec.Name), func(t *testing.T) {
				n := 1 << 16
				if spec.Name == "matmul" {
					n = 64
				}
				// Linear arrays and CSR (32n), plus sample sort's (n/1024)^2
				// count and offset matrices.
				ck := n/1024 + 2
				rt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(procs), ppm.WithSeed(42),
					ppm.WithMemWords(1<<20+32*n+8*ck*ck), ppm.WithFaultRate(f))
				defer rt.Close()
				algo := spec.New("ceiling", n, 2024)
				algo.Build(rt)
				if !algo.Run() {
					t.Fatal("did not complete")
				}
				if err := algo.Verify(); err != nil {
					t.Fatal(err)
				}
				if procs > 1 {
					// How many faults four workers draw depends on the steal
					// schedule; here the run only has to verify.
					return
				}
				s := rt.Stats()
				if s.SoftFaults == 0 {
					t.Error("no soft faults drawn; the run did not exercise replay")
				}
				c := s.MaxCapsWork
				t.Logf("largest capsule: C = %d, 2fC = %.3f (%d soft faults)", c, 2*f*float64(c), s.SoftFaults)
				if 2*f*float64(c) >= 1 {
					t.Errorf("largest capsule does %d word accesses: 2fC = %.2f at f = %g, the replay bound needs < 1",
						c, 2*f*float64(c), f)
				}
			})
		}
	}
}

// TestEngineParityTreeSum runs one hand-written Ctx program on both engines
// and checks they agree exactly — including RunOnAll-style manual chains.
func TestEngineParityTreeSum(t *testing.T) {
	const n, leaf = 2048, 32
	results := map[ppm.Engine]uint64{}
	for _, eng := range []ppm.Engine{ppm.EngineModel, ppm.EngineNative} {
		rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(4), ppm.WithSeed(3))
		in := rt.NewArray(n)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i%31 + 1)
		}
		in.Load(vals)
		out := rt.NewArray(1)
		combine := rt.Register("parity/combine", func(c ppm.Ctx) {
			c.Write(c.Addr(2), c.Read(c.Addr(0))+c.Read(c.Addr(1)))
			c.Done()
		})
		var sum ppm.FuncRef
		sum = rt.Register("parity/sum", func(c ppm.Ctx) {
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
			t.Fatalf("%s: did not complete", eng)
		}
		results[eng] = out.Snapshot()[0]
	}
	if results[ppm.EngineModel] != results[ppm.EngineNative] {
		t.Fatalf("engines disagree: model=%d native=%d",
			results[ppm.EngineModel], results[ppm.EngineNative])
	}
}

// TestNativePersist checks the capsule-boundary persistence-point option:
// the run still verifies, persistence points are counted, and each one is a
// committed write visible in the stats.
func TestNativePersist(t *testing.T) {
	run := func(persist bool) (ppm.Stats, int64) {
		opts := []ppm.Option{ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(2), ppm.WithSeed(7)}
		if persist {
			opts = append(opts, ppm.WithNativePersist())
		}
		rt := ppm.New(opts...)
		algo, _ := ppm.NewByName("mergesort", "persist", 1<<11, 4)
		algo.Build(rt)
		if !algo.Run() {
			t.Fatal("did not complete")
		}
		if err := algo.Verify(); err != nil {
			t.Fatal(err)
		}
		return rt.Stats(), rt.PersistPoints()
	}
	plain, pp0 := run(false)
	persisted, pp := run(true)
	if pp0 != 0 {
		t.Errorf("persist points without WithNativePersist = %d, want 0", pp0)
	}
	if pp == 0 {
		t.Error("expected persistence points to be recorded")
	}
	if persisted.Writes <= plain.Writes {
		t.Errorf("persistence points should add committed writes: %d <= %d",
			persisted.Writes, plain.Writes)
	}
}

// TestSchedStatsSeam checks the scheduler-stats engine seam: the native
// engine reports internally consistent counters, each grab moving between
// one task and the steal cap (8), while the model engine is all zeros — its
// scheduler cost is part of the simulated accounting.
func TestSchedStatsSeam(t *testing.T) {
	rt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(4), ppm.WithSeed(9))
	algo, _ := ppm.NewByName("mergesort", "sched", 1<<11, 4)
	algo.Build(rt)
	if !algo.Run() {
		t.Fatal("did not complete")
	}
	if err := algo.Verify(); err != nil {
		t.Fatal(err)
	}
	s := rt.SchedStats()
	if s.StealTries < s.Steals || s.BatchTasks < s.Steals || s.BatchTasks > 8*s.Steals {
		t.Errorf("inconsistent counters %+v", s)
	}
	rt.Close()
	rt = ppm.New(ppm.WithProcs(4), ppm.WithSeed(9))
	algo, _ = ppm.NewByName("mergesort", "schedmodel", 1<<10, 4)
	algo.Build(rt)
	if !algo.Run() {
		t.Fatal("did not complete")
	}
	if s := rt.SchedStats(); s != (ppm.SchedStats{}) {
		t.Errorf("model engine SchedStats = %+v, want zero value", s)
	}
}

// TestParseEngine checks flag-value parsing.
func TestParseEngine(t *testing.T) {
	for _, ok := range []string{"model", "native"} {
		if _, err := ppm.ParseEngine(ok); err != nil {
			t.Errorf("ParseEngine(%q) = %v", ok, err)
		}
	}
	if _, err := ppm.ParseEngine("warp"); err == nil {
		t.Error("ParseEngine(warp) should fail")
	}
}
