// Graphdemo: breadth-first search over a generated graph with the ppm/graph
// subsystem, on both execution engines.
//
// The demo generates a power-law (RMAT) graph, runs frontier-based BFS from
// vertex 0 on the faithful Parallel-PM model — under a soft-fault rate, to
// show the CAM-claim frontier protocol replaying idempotently — and then
// runs the identical algorithm instance on the native goroutine engine at
// hardware speed. Both runs self-verify against a sequential BFS and must
// produce the same level structure.
//
//	go run ./examples/graphdemo
package main

import (
	"fmt"
	"os"
	"time"

	"repro/ppm"
	"repro/ppm/graph"
)

const (
	vertices = 1 << 12
	edges    = 4 * vertices
)

func main() {
	g := graph.RMAT(vertices, edges, 2018)
	fmt.Printf("RMAT graph: %d vertices, %d arcs\n\n", g.N, g.Arcs())

	// Pass 1: the model engine with soft faults injected — every frontier
	// claim is a CAM, every round phase is WAR-free, so replay after a lost
	// capsule changes nothing.
	rt := ppm.New(
		ppm.WithProcs(4),
		ppm.WithFaultRate(0.001),
		ppm.WithSeed(7),
		ppm.WithMemWords(1<<24),
		ppm.WithPoolWords(1<<21),
	)
	algo := graph.BFS("demo", g, 0)
	algo.Build(rt)
	start := time.Now()
	if !algo.Run() {
		fmt.Println("FATAL: every processor died")
		os.Exit(1)
	}
	modelWall := time.Since(start)
	if err := algo.Verify(); err != nil {
		fmt.Println("VERIFY FAILED:", err)
		os.Exit(1)
	}
	s := rt.Stats()
	fmt.Printf("[model]  verified in %v — %d block transfers, %d capsules, %d soft faults replayed\n",
		modelWall.Round(time.Millisecond), s.Work, s.Capsules, s.SoftFaults)
	levels := levelHistogram(algo.Output())
	fmt.Printf("         levels: %v\n\n", levels)

	// Pass 2: the identical workload on the native work-stealing engine.
	nrt := ppm.New(
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(4),
		ppm.WithSeed(7),
		ppm.WithMemWords(1<<24),
	)
	nalgo := graph.BFS("demo", g, 0)
	nalgo.Build(nrt)
	start = time.Now()
	if !nalgo.Run() {
		fmt.Println("FATAL: native run did not complete")
		os.Exit(1)
	}
	nativeWall := time.Since(start)
	if err := nalgo.Verify(); err != nil {
		fmt.Println("VERIFY FAILED:", err)
		os.Exit(1)
	}
	ns := nrt.Stats()
	fmt.Printf("[native] verified in %v — %d word accesses, %d capsules, %d steals\n",
		nativeWall.Round(time.Microsecond), ns.Work, ns.Capsules, ns.Steals)
	fmt.Printf("         levels: %v (identical structure, zero code changes)\n\n", levelHistogram(nalgo.Output()))
	if nativeWall > 0 {
		fmt.Printf("native speedup: %.1fx\n", float64(modelWall)/float64(nativeWall))
	}
}

// levelHistogram counts vertices per BFS level (INF = unreachable last).
func levelHistogram(levels []uint64) []int {
	inf := ^uint64(0)
	var counts []int
	unreachable := 0
	for _, l := range levels {
		if l == inf {
			unreachable++
			continue
		}
		for int(l) >= len(counts) {
			counts = append(counts, 0)
		}
		counts[l]++
	}
	return append(counts, unreachable)
}
