package main

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/warcheck"
	"repro/ppm"
)

// algoRT builds the standard runtime the algorithm experiments share: the
// faulty simulated machine, or the native backend (which ignores the fault
// options and needs no closure pools).
func algoRT(eng ppm.Engine, p int, f float64, seed uint64) *ppm.Runtime {
	mem := 1 << 25
	if eng == ppm.EngineNative {
		mem = 1 << 23
	}
	return ppm.New(
		ppm.WithEngine(eng),
		ppm.WithProcs(p),
		ppm.WithFaultRate(f),
		ppm.WithSeed(seed),
		ppm.WithEphWords(1<<13),
		ppm.WithMemWords(mem),
		ppm.WithPoolWords(1<<22),
	)
}

// faultRates returns the fault-rate sweep for an engine: the native engine
// injects no faults, so only the f=0 row is meaningful there.
func faultRates(eng ppm.Engine) []float64 {
	if eng == ppm.EngineNative {
		return []float64{0}
	}
	return []float64{0, 0.005}
}

// mustRun builds algo on rt, runs it, and verifies the output against the
// sequential reference — the uniform driver every experiment shares.
func mustRun(rt *ppm.Runtime, algo ppm.Algorithm) bool {
	algo.Build(rt)
	if !algo.Run() {
		fmt.Println("FAILED: every processor died")
		return false
	}
	if err := algo.Verify(); err != nil {
		fmt.Printf("WRONG OUTPUT: %v\n", err)
		return false
	}
	return true
}

// runE7 — Theorem 7.1: prefix sum W = O(n/B), D = O(log n), C = O(1).
// (On the native engine the counters are word accesses and the leaf is 512
// elements, not B, so the normalized column sits near 3B and maxC near
// 1 024 instead of small constants; the flatness check is the same.)
func runE7(eng ppm.Engine) {
	fmt.Printf("%10s %8s %12s %10s %8s\n", "n", "f", "W(algo)", "W/(n/B)", "maxC")
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		for _, f := range faultRates(eng) {
			rt := algoRT(eng, 4, f, 2)
			algo, ok := ppm.NewByName("prefixsum", "e7", n, uint64(n))
			if !ok {
				fmt.Println("unknown workload prefixsum")
				return
			}
			if !mustRun(rt, algo) {
				continue
			}
			s := rt.Stats()
			nb := float64(n) / float64(rt.BlockWords())
			fmt.Printf("%10d %8.3f %12d %10.2f %8d\n",
				n, f, s.UserWork, float64(s.UserWork)/nb, s.MaxCapsWork)
		}
	}
	fmt.Println("check: W/(n/B) flat; maxC constant in n (leaf = the engine's grain: B model, 512 native)")
}

// runE8 — Theorem 7.2: merge W = O(n/B), C = O(log n). The leaf is the
// engine's grain: 8·B elements on the model, where maxC is a few leaf blocks
// plus the binary searches' O(log n) transfers, and 1 024 elements native,
// where maxC is about two words per leaf element (read and written) plus
// the searches' words.
func runE8(eng ppm.Engine) {
	fmt.Printf("%10s %8s %12s %10s %8s\n", "n", "f", "W(algo)", "W/(n/B)", "maxC")
	for _, n := range []int{1 << 9, 1 << 12, 1 << 15} {
		for _, f := range faultRates(eng) {
			rt := algoRT(eng, 4, f, 3)
			algo := ppm.Merge("e8", ppm.SortedInput(n, 1), ppm.SortedInput(n, 2))
			if !mustRun(rt, algo) {
				continue
			}
			s := rt.Stats()
			nb := 2 * float64(n) / float64(rt.BlockWords())
			fmt.Printf("%10d %8.3f %12d %10.2f %8d\n",
				n, f, s.UserWork, float64(s.UserWork)/nb, s.MaxCapsWork)
		}
	}
	fmt.Println("check: W/(n/B) flat; maxC grows only logarithmically (binary searches)")
}

// runE9 — Theorem 7.3: mergesort's W/(n/B) grows with log(n/M); samplesort's
// stays below it and grows more slowly. It is not flat at these sizes: the
// (n/M)² count matrix and its prefix sum grow with n. Parameters respect
// M > B² and n <= M²/B.
func runE9(eng ppm.Engine) {
	const mWords = 1024
	fmt.Printf("%10s %10s %14s %14s\n", "n", "log2(n/M)", "msort W/(n/B)", "ssort W/(n/B)")
	for _, n := range []int{1 << 13, 1 << 14, 1 << 15, 1 << 16} {
		row := make([]float64, 2)
		in := rng.NewXoshiro256(uint64(n)).Uint64s(make([]uint64, n))
		for i := range in {
			in[i] %= 1_000_000
		}
		for i, algo := range []ppm.Algorithm{
			ppm.MergeSort("e9", in, mWords),
			ppm.SampleSort("e9", in, mWords),
		} {
			rt := algoRT(eng, 1, 0, 7)
			if !mustRun(rt, algo) {
				return
			}
			nb := float64(n) / float64(rt.BlockWords())
			row[i] = float64(rt.Stats().UserWork) / nb
		}
		logNM := 0
		for v := n / mWords; v > 1; v /= 2 {
			logNM++
		}
		fmt.Printf("%10d %10d %14.1f %14.1f\n", n, logNM, row[0], row[1])
	}
	fmt.Println("check: samplesort column below mergesort's at every n, and growing")
	fmt.Println("more slowly — the Theorem 7.3 work separation")
}

// runE10 — Theorem 7.4: matmul W = O(n³/(B√M)): 8x per doubling of n at
// fixed base; decreasing in base (≈√M).
func runE10(eng ppm.Engine) {
	fmt.Printf("%8s %8s %12s %12s\n", "n", "base", "W(algo)", "W·B√M/n³")
	for _, n := range []int{16, 32, 64} {
		for _, base := range []int{4, 8, 16} {
			if base > n {
				continue
			}
			rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(2), ppm.WithSeed(9),
				ppm.WithMemWords(1<<25), ppm.WithPoolWords(1<<22))
			x := rng.NewXoshiro256(uint64(n))
			a := make([]uint64, n*n)
			b := make([]uint64, n*n)
			for i := range a {
				a[i], b[i] = x.Next()%10, x.Next()%10
			}
			if !mustRun(rt, ppm.MatMul(fmt.Sprintf("e10-%d-%d", n, base), n, base, a, b)) {
				continue
			}
			w := float64(rt.Stats().UserWork)
			bw := float64(rt.BlockWords())
			norm := w * bw * float64(base) / (float64(n) * float64(n) * float64(n))
			fmt.Printf("%8d %8d %12.0f %12.3f\n", n, base, w, norm)
		}
	}
	fmt.Println("check: normalized column ≈ constant per base (the n³/(B√M) law,")
	fmt.Println("with base playing √M)")
}

// runE12 — the WAR checker: seeded conflicting capsules are flagged; the
// fault-replay demonstration shows the actual corruption they cause.
func runE12(ppm.Engine) {
	// Randomized conflict seeding on raw capsules.
	x := rng.NewXoshiro256(99)
	flagged, planted, clean := 0, 0, 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		tr := warcheck.New(true)
		conflict := false
		exposed := map[int]bool{} // first access was a read
		written := map[int]bool{}
		for op := 0; op < 12; op++ {
			blk := x.Intn(6)
			if x.Bernoulli(0.5) {
				if !written[blk] {
					exposed[blk] = true // an exposed read per §3
				}
				tr.OnRead(blk)
			} else {
				if exposed[blk] {
					conflict = true
				}
				written[blk] = true
				tr.OnWrite(blk)
			}
		}
		if conflict {
			planted++
			if len(tr.Violations()) > 0 {
				flagged++
			}
		} else {
			clean++
			if len(tr.Violations()) > 0 {
				fmt.Println("FALSE POSITIVE")
				return
			}
		}
	}
	fmt.Printf("random capsules: %d/%d planted WAR conflicts flagged, %d clean capsules, 0 false positives\n",
		flagged, planted, clean)

	// The corruption a WAR conflict causes under replay (Theorem 3.1's
	// converse): in-place increment double-applies.
	rt := ppm.New(ppm.WithSoftFaultAt(0, 4))
	cell := rt.NewArray(1)
	incr := rt.Register("e12/incr", func(c ppm.Ctx) {
		v := c.Read(cell.At(0))
		//ppm:allow warfree E12 plants this WAR conflict on purpose to show the double-apply
		c.Write(cell.At(0), v+1)
		c.Halt()
	})
	rt.RunOnAll(incr)
	fmt.Printf("in-place increment with one fault: cell = %d (correct would be 1)\n",
		cell.Snapshot()[0])
	fmt.Println("check: all planted conflicts flagged; WAR capsule visibly non-idempotent")
}

// runA3 — the Asymmetric PM extension (footnote 2): persistent writes cost
// ω ≥ 1 units. The model's counters track reads and writes separately, so
// asymmetric cost is r + ω·w; the table shows how each algorithm's
// read/write balance translates.
func runA3(ppm.Engine) {
	fmt.Printf("%-12s %10s %10s %12s %12s %12s\n",
		"algorithm", "reads", "writes", "cost ω=1", "cost ω=4", "cost ω=16")
	for _, spec := range ppm.Catalog() {
		n := 1 << 14
		switch spec.Name {
		case "merge", "mergesort", "samplesort":
			n = 1 << 13
		case "matmul":
			n = 32
		}
		rt := algoRT(ppm.EngineModel, 1, 0, 1)
		if !mustRun(rt, spec.New("a3", n, uint64(n))) {
			continue
		}
		s := rt.Stats()
		fmt.Printf("%-12s %10d %10d %12d %12d %12d\n",
			spec.Name, s.Reads, s.Writes, s.Reads+s.Writes, s.Reads+4*s.Writes, s.Reads+16*s.Writes)
	}
	fmt.Println("check: capsule bookkeeping (closure writes, installs) makes the")
	fmt.Println("model write-heavy; asymmetric cost scales accordingly — the")
	fmt.Println("write-avoiding variants of [12,13] would attack exactly this")
}

// runA2 — capsule granularity: under faults there is a sweet spot between
// tiny capsules (boundary overhead) and huge capsules (restart waste) — the
// paper's checkpointing tension (§2).
func runA2(ppm.Engine) {
	const n = 1 << 14
	fmt.Printf("%8s %8s %12s %12s %10s\n", "leaf", "f", "Wf(total)", "restarts", "maxC")
	for _, leaf := range []int{8, 64, 512, 4096} {
		for _, f := range []float64{0.002, 0.02} {
			// The model requires f ≤ 1/(2C): beyond it a maximum-work
			// capsule fails in expectation every attempt and the run
			// diverges — report that instead of hanging.
			approxC := int64(leaf)/8 + 4
			if float64(approxC)*f > 2 {
				fmt.Printf("%8d %8.3f %12s %12s %10d  (diverges: C·f ≈ %.1f > 1, violates f ≤ 1/(2C))\n",
					leaf, f, "-", "-", approxC, float64(approxC)*f)
				continue
			}
			rt := algoRT(ppm.EngineModel, 2, f, 13)
			x := rng.NewXoshiro256(1)
			in := make([]uint64, n)
			for i := range in {
				in[i] = x.Next() % 100
			}
			if !mustRun(rt, ppm.PrefixSum(fmt.Sprintf("a2-%d-%v", leaf, f), in, leaf)) {
				continue
			}
			s := rt.Stats()
			fmt.Printf("%8d %8.3f %12d %12d %10d\n", leaf, f, s.Work, s.Restarts, s.MaxCapsWork)
		}
	}
	fmt.Println("check: total work is U-shaped in leaf size at high f — small")
	fmt.Println("capsules pay per-capsule overhead, large ones replay more on faults")
}
