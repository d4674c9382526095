// camdemo reproduces Figure 2 of the paper: the claimOwnership CAM capsule.
//
// Several processors race to claim a job by CAM-ing its owner word from a
// default value to their own ID, while soft faults repeatedly blow away
// their registers mid-capsule. The CAM's result is never read — a later
// capsule reads the owner word from persistent memory to learn the outcome —
// which is precisely why the protocol survives faults (Theorem 5.2), where a
// CAS that branches on its register result would not (Section 5).
//
// The protocol runs twice: on the very faulty model machine, and then on
// the native engine, where the same CAM race plays out between real
// goroutines on real hardware atomics.
//
//	go run ./examples/camdemo
package main

import (
	"fmt"
	"os"

	"repro/ppm"
)

const procs = 4

func race(eng ppm.Engine) (oneWinner bool) {
	opts := []ppm.Option{
		ppm.WithEngine(eng),
		ppm.WithProcs(procs),
		ppm.WithSeed(7),
	}
	if eng == ppm.EngineModel {
		opts = append(opts,
			ppm.WithFaultRate(0.15), // very faulty machine
			ppm.WithWARCheck(),
		)
	}
	rt := ppm.New(opts...)

	owner := rt.NewArray(1)            // 0 = unowned (the "default")
	claimed := rt.NewBlockArray(procs) // per-processor result slots, WAR-independent

	// claimOwnership, per Figure 2: CAM(target, default, myID), then in the
	// NEXT capsule read the target to see who won.
	check := rt.Register("checkOwnership", func(c ppm.Ctx) {
		me := uint64(c.Proc()) + 1
		won := uint64(0)
		if c.Read(owner.At(0)) == me {
			won = 1
		}
		claimed.Set(c, c.Proc(), won+1) // 1=lost, 2=won
		c.Halt()
	})
	claim := rt.Register("claimOwnership", func(c ppm.Ctx) {
		me := uint64(c.Proc()) + 1
		c.CAM(owner.At(0), 0, me) // result deliberately not visible
		c.Then(check.Call())
	})

	rt.RunOnAll(claim)

	ownerWord := owner.Snapshot()[0]
	fmt.Printf("[%s] owner word: processor %d claimed the job\n", eng, ownerWord-1)
	winners := 0
	results := claimed.Snapshot()
	for p := 0; p < procs; p++ {
		status := "lost"
		if results[p] == 2 {
			status = "WON"
			winners++
		}
		fmt.Printf("  proc %d: %s\n", p, status)
	}
	if eng == ppm.EngineModel {
		s := rt.Stats()
		fmt.Printf("soft faults injected: %d (capsules replayed %d times)\n", s.SoftFaults, s.Restarts)
	}
	if winners == 1 {
		fmt.Println("exactly one winner: the CAM capsule is atomically idempotent")
	} else {
		fmt.Printf("PROTOCOL VIOLATION: %d winners\n", winners)
	}
	return winners == 1
}

func main() {
	ok := race(ppm.EngineModel)
	fmt.Println()
	if !race(ppm.EngineNative) || !ok {
		os.Exit(1)
	}
}
