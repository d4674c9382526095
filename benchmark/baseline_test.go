package main

import (
	"fmt"
	"testing"

	"repro/ppm"
	"repro/ppm/graph"
)

// tinyGraphs are the inputs the baselines are proven on: a connected random
// graph, a mesh, a graph with several components and isolated vertices, and a
// single vertex.
func tinyGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rand":         graph.Rand(300, 1200, 7),
		"grid":         graph.Grid(9, 13),
		"disconnected": graph.FromArcs(12, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {5, 9}, {9, 5}, {9, 10}, {10, 9}, {10, 5}, {5, 10}}),
		"single":       graph.FromArcs(1, nil),
	}
}

func tinyRuntime() *ppm.Runtime {
	return ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(2), ppm.WithMemWords(1<<20))
}

// agree runs a on a fresh native runtime and requires both its own Verify and
// word-for-word equality with the baseline's answer.
func agree(t *testing.T, a ppm.Algorithm, want []uint64) {
	t.Helper()
	rt := tinyRuntime()
	defer rt.Close()
	a.Build(rt)
	if !a.Run() {
		t.Fatalf("%s: run did not complete", a.Name())
	}
	if err := a.Verify(); err != nil {
		t.Fatalf("%s: own Verify: %v", a.Name(), err)
	}
	if err := sameWords(a.Output(), want); err != nil {
		t.Fatalf("%s against baseline: %v", a.Name(), err)
	}
}

func TestGraphBaselinesAgreeWithKernels(t *testing.T) {
	for name, g := range tinyGraphs() {
		t.Run(name, func(t *testing.T) {
			for _, src := range []int{0, g.N / 2, g.N - 1} {
				agree(t, graph.BFS(fmt.Sprintf("t%d", src), g, src), baselineBFS(g, src))
			}
			agree(t, graph.Components("t", g), baselineCC(g))
			for _, iters := range []int{1, 10} {
				agree(t, graph.PageRank(fmt.Sprintf("t%d", iters), g, iters),
					baselinePageRank(g, g.Reverse(), iters))
				// The generators and FromArcs inputs above are symmetric, so
				// the resident summation order is the graph's own lists.
				if err := sameWords(baselinePageRank(g, g, iters), graph.PageRankResidentRef(g, iters)); err != nil {
					t.Fatalf("resident order, %d iterations: %v", iters, err)
				}
			}
		})
	}
}

func TestLabelRoundsMatchesComponents(t *testing.T) {
	// A path of k vertices needs k-1 rounds to carry label 0 to the far end
	// and one more to see nothing change.
	arcs := [][2]int{}
	for v := 0; v+1 < 6; v++ {
		arcs = append(arcs, [2]int{v, v + 1}, [2]int{v + 1, v})
	}
	if got := labelRounds(graph.FromArcs(6, arcs)); got != 6 {
		t.Fatalf("path of 6: %d rounds, want 6", got)
	}
	if got := labelRounds(graph.FromArcs(1, nil)); got != 1 {
		t.Fatalf("single vertex: %d rounds, want 1", got)
	}
}

func TestForkJoinBaselinesAgreeWithPrograms(t *testing.T) {
	for _, n := range []int{1, 2, 1000, 5000} {
		in := randomWords(n, uint64(n), 1000)
		agree(t, ppm.PrefixSum("t", in, 0), baselinePrefixSum(in))
		keys := randomWords(n, uint64(n)+1, 1_000_000)
		agree(t, ppm.MergeSort("t", keys, 1024), baselineSort(keys))
	}
}

func TestSummariesMatchServerFormulas(t *testing.T) {
	reached, depth, sum := bfsSummary([]uint64{0, 1, unreached, 2})
	if reached != 3 || depth != 2 || sum != (1*31+2)*31+3 {
		t.Fatalf("bfsSummary = %d, %d, %d", reached, depth, sum)
	}
	comps, csum := ccSummary([]uint64{0, 0, 2, 2, 4})
	if comps != 3 || csum != 8*31 {
		t.Fatalf("ccSummary = %d, %d", comps, csum)
	}
	if got := rankChecksum([]uint64{3, 5}); got != 3*31+5 {
		t.Fatalf("rankChecksum = %d", got)
	}
}
