// Quickstart: a parallel tree-sum on the Parallel-PM model, executed under
// aggressive soft faults plus one hard (permanent) processor failure — and
// still producing the exact answer, thanks to idempotent capsules and the
// fault-tolerant work-stealing scheduler. The same program then runs again,
// unchanged, on the native goroutine engine at hardware speed — the
// engine-split workflow: develop and validate on the faithful model, scale
// on the native backend.
//
// The program is written entirely against the public ppm API: typed capsule
// arguments, Array instead of address arithmetic, and ForkThen instead of
// hand-wired join cells.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"repro/ppm"
)

const (
	n    = 4096 // array length
	leaf = 64   // sequential base case
)

// buildTreeSum registers the tree-sum program on rt and returns its root
// and output cell. Note there is nothing engine-specific here: the same
// function builds the model and the native instance.
func buildTreeSum(rt *ppm.Runtime) (ppm.FuncRef, ppm.Array, uint64) {
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
		slots := c.Alloc(2)
		c.ForkThen(
			sum.Call(lo, mid, slots.At(0)),
			sum.Call(mid, hi, slots.At(1)),
			combine.Call(slots.At(0), slots.At(1), dst))
	})
	return sum, out, want
}

func main() {
	// Pass 1: the model engine, on a spectacularly unreliable machine.
	rt := ppm.New(
		ppm.WithProcs(4),
		ppm.WithFaultRate(0.01),   // 1% chance of losing all volatile state per memory access
		ppm.WithHardFault(0, 800), // the processor running the root dies for good mid-run
		ppm.WithSeed(42),
		ppm.WithWARCheck(), // verify write-after-read conflict freedom as we go
	)
	sum, out, want := buildTreeSum(rt)
	if !rt.Run(sum, 0, n, out.At(0)) {
		fmt.Println("FATAL: every processor died before completion")
		os.Exit(1)
	}
	got := out.Snapshot()[0]
	s := rt.Stats()
	fmt.Printf("[model] sum(0..%d) = %d (expected %d) — %s\n", n-1, got,
		want, map[bool]string{true: "CORRECT", false: "WRONG"}[got == want])
	fmt.Printf("processors: %d (%d hard-faulted mid-run)\n", s.P, s.Dead)
	fmt.Printf("soft faults injected: %d, capsule restarts: %d\n", s.SoftFaults, s.Restarts)
	fmt.Printf("total work Wf = %d transfers (faultless W would be less); steals = %d\n",
		s.Work, s.Steals)
	wars := rt.WARViolations()
	if len(wars) > 0 {
		fmt.Printf("WAR violations (should be none!): %v\n", wars)
	} else {
		fmt.Println("write-after-read conflict freedom verified: all capsules idempotent")
	}

	// Pass 2: the identical program on the native work-stealing engine —
	// real goroutines, real hardware, no interpreter in the way.
	nrt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(4), ppm.WithSeed(42))
	nsum, nout, _ := buildTreeSum(nrt)
	start := time.Now()
	nrt.Run(nsum, 0, n, nout.At(0))
	wall := time.Since(start)
	ngot := nout.Snapshot()[0]
	ns := nrt.Stats()
	fmt.Printf("\n[native] same program, engine=%s: sum = %d (%s) in %s\n",
		nrt.Engine(), ngot,
		map[bool]string{true: "CORRECT", false: "WRONG"}[ngot == want],
		wall.Round(time.Microsecond))
	fmt.Printf("capsules executed: %d, steals: %d — zero algorithm changes between engines\n",
		ns.Capsules, ns.Steals)
	if got != want || ngot != want || len(wars) > 0 {
		os.Exit(1)
	}
}
