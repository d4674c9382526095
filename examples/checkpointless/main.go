// checkpointless contrasts the capsule discipline with what it replaces:
// running a legacy sequential RAM program on persistent memory with NO
// application-level checkpointing, via the Theorem 3.2 simulation — one
// instruction per capsule, registers double-buffered in persistent memory.
//
// The same fibonacci program runs at increasing fault rates; the answer
// never changes, only the total work (the 1/(1-kf) expected blow-up). The
// machines come from the public ppm API; the RAM simulation itself is an
// internal subsystem reached through Runtime.Machine.
//
//	go run ./examples/checkpointless
package main

import (
	"fmt"
	"os"

	"repro/internal/simram"
	"repro/ppm"
)

func main() {
	prog := simram.FibProgram(40)
	want, steps, err := prog.RunNative(nil, 1<<30)
	if err != nil {
		panic(err)
	}
	fmt.Printf("RAM program: fib(40), %d instructions\n", steps)
	fmt.Printf("%8s %14s %12s %10s\n", "f", "result", "Wf", "Wf/step")

	for _, f := range []float64{0, 0.001, 0.01, 0.05, 0.10} {
		rt := ppm.New(ppm.WithFaultRate(f), ppm.WithSeed(7))
		sim := simram.New(rt.Machine(), fmt.Sprintf("fib-%v", f), prog, 2)
		sim.Install(0)
		rt.Machine().Run()
		regs := sim.Regs()
		s := rt.Stats()
		fmt.Printf("%8.3f %14d %12d %10.1f\n",
			f, regs[0], s.Work, float64(s.Work)/float64(steps))
		if regs[0] != want[0] {
			fmt.Printf("WRONG: f = %v gave %d, the RAM program %d\n", f, regs[0], want[0])
			os.Exit(1)
		}
	}
	fmt.Println("\nsame answer at every fault rate; cost stays O(t) with a")
	fmt.Println("fault-dependent constant — Theorem 3.2 in action")
}
