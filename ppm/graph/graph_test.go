package graph_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/ppm"
	"repro/ppm/graph"
)

// newRT builds a test runtime on the given engine, sized for the small
// graphs below; opts apply after the defaults and may override them.
func newRT(eng ppm.Engine, p int, opts ...ppm.Option) *ppm.Runtime {
	return ppm.New(append([]ppm.Option{
		ppm.WithEngine(eng),
		ppm.WithProcs(p),
		ppm.WithSeed(17),
		ppm.WithMemWords(1 << 22),
		ppm.WithPoolWords(1 << 19),
	}, opts...)...)
}

var bothEngines = []ppm.Engine{ppm.EngineModel, ppm.EngineNative}

// fixedGraph is a small two-component hand-checkable graph:
//
//	0—1—2—3 (path), 1—4, and the triangle 5—6—7; vertex 8 isolated.
func fixedGraph() *graph.Graph {
	arcs := [][2]int{}
	und := func(u, v int) { arcs = append(arcs, [2]int{u, v}, [2]int{v, u}) }
	und(0, 1)
	und(1, 2)
	und(2, 3)
	und(1, 4)
	und(5, 6)
	und(6, 7)
	und(5, 7)
	return graph.FromArcs(9, arcs)
}

// TestBFSFixedBothEngines checks exact levels on the hand-built graph on
// both engines, including the unreachable component.
func TestBFSFixedBothEngines(t *testing.T) {
	inf := ^uint64(0)
	want := []uint64{0, 1, 2, 3, 2, inf, inf, inf, inf}
	for _, eng := range bothEngines {
		rt := newRT(eng, 4)
		algo := graph.BFS("fixed", fixedGraph(), 0)
		algo.Build(rt)
		if !algo.Run() {
			t.Fatalf("%s: did not complete", eng)
		}
		if err := algo.Verify(); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		got := algo.Output()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: level[%d] = %d, want %d", eng, v, got[v], want[v])
			}
		}
	}
}

// TestCCFixedBothEngines checks component labels on the hand-built graph.
func TestCCFixedBothEngines(t *testing.T) {
	want := []uint64{0, 0, 0, 0, 0, 5, 5, 5, 8}
	for _, eng := range bothEngines {
		rt := newRT(eng, 4)
		algo := graph.Components("fixed", fixedGraph())
		algo.Build(rt)
		if !algo.Run() {
			t.Fatalf("%s: did not complete", eng)
		}
		if err := algo.Verify(); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		got := algo.Output()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: label[%d] = %d, want %d", eng, v, got[v], want[v])
			}
		}
	}
}

// TestPageRankFixedBothEngines checks bit-exact cross-engine agreement and
// that ranks form a sensible distribution (positive, hub ranked highest).
func TestPageRankFixedBothEngines(t *testing.T) {
	results := map[ppm.Engine][]uint64{}
	for _, eng := range bothEngines {
		rt := newRT(eng, 4)
		algo := graph.PageRank("fixed", fixedGraph(), 15)
		algo.Build(rt)
		if !algo.Run() {
			t.Fatalf("%s: did not complete", eng)
		}
		if err := algo.Verify(); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		results[eng] = algo.Output()
	}
	model, native := results[ppm.EngineModel], results[ppm.EngineNative]
	for v := range model {
		if model[v] != native[v] {
			t.Fatalf("engines disagree at vertex %d: model %x native %x", v, model[v], native[v])
		}
	}
	ranks := make([]float64, len(model))
	for v := range model {
		ranks[v] = math.Float64frombits(model[v])
		if ranks[v] <= 0 {
			t.Fatalf("rank[%d] = %g, want positive", v, ranks[v])
		}
	}
	// Vertex 1 has the highest degree in its component and feeds from three
	// neighbours; it must outrank the leaves 3 and 4.
	if ranks[1] <= ranks[3] || ranks[1] <= ranks[4] {
		t.Errorf("hub rank %g should exceed leaf ranks %g, %g", ranks[1], ranks[3], ranks[4])
	}
}

// TestPageRankRefusesUnbalancedDegrees: PageRank pulls over in-lists and
// divides by their lengths, which are the out-degrees only when every vertex
// has as many arcs in as out. A directed path has not, and construction
// refuses it.
func TestPageRankRefusesUnbalancedDegrees(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "in-degree") {
			t.Fatalf("PageRank over a directed path: recovered %v, want the degree precondition panic", r)
		}
	}()
	graph.PageRank("directed", graph.FromArcs(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), 4)
}

// TestGeneratedGraphsBothEngines runs all three algorithms over every
// generator on both engines and lets each self-verify — the parity matrix.
func TestGeneratedGraphsBothEngines(t *testing.T) {
	gs := map[string]*graph.Graph{
		"rand": graph.Rand(300, 600, 7),
		"grid": graph.Grid(15, 20),
		"rmat": graph.RMAT(256, 700, 9),
	}
	for gname, g := range gs {
		for _, eng := range bothEngines {
			g, eng := g, eng
			t.Run(gname+"/"+string(eng), func(t *testing.T) {
				for _, algo := range []ppm.Algorithm{
					graph.BFS("gen", g, 0),
					graph.Components("gen", g),
					graph.PageRank("gen", g, 8),
				} {
					rt := newRT(eng, 4)
					algo.Build(rt)
					if !algo.Run() {
						t.Fatalf("%s: did not complete", algo.Name())
					}
					if err := algo.Verify(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestRunAtRefusesSlotsOutOfRange: a run's version slot rides its root's
// arguments, and every leaf reads the CSR at that slot's bases, so a slot the
// source does not have sent leaves past the ring and panicked a worker
// goroutine, killing the process. CC.RunAt, PR.RunAt and MultiBFS.RunBatchAt
// refuse it with an error before the run, over a *Graph (one slot) and a
// Resident (its ring), on both engines, and the runtime runs on.
func TestRunAtRefusesSlotsOutOfRange(t *testing.T) {
	g := graph.Grid(8, 8)
	for _, eng := range bothEngines {
		for _, src := range []struct {
			name  string
			slots int
			new   func(rt *ppm.Runtime) graph.Source
		}{
			{"graph", 1, func(*ppm.Runtime) graph.Source { return g }},
			{"resident", 3, func(rt *ppm.Runtime) graph.Source {
				res := graph.NewResident("slots", g, 3, 0, 4)
				res.Build(rt)
				return res
			}},
		} {
			t.Run(string(eng)+"/"+src.name, func(t *testing.T) {
				rt := newRT(eng, 2)
				defer rt.Close()
				s := src.new(rt)
				cc := graph.Components("slots", s)
				cc.Build(rt)
				pr := graph.PageRank("slots", s, 4)
				pr.Build(rt)
				ms := graph.NewMultiBFS("slots", s, 2)
				ms.Build(rt)
				kernels := []struct {
					name  string
					run   func(slot int) (bool, error)
					check func() error
				}{
					{"cc", cc.RunAt, cc.Verify},
					{"pagerank", pr.RunAt, pr.Verify},
					{"msbfs", func(slot int) (bool, error) { return ms.RunBatchAt([]int{0, 63}, slot) }, ms.Verify},
				}
				for _, k := range kernels {
					for _, slot := range []int{-1, src.slots, src.slots + 2} {
						if ok, err := k.run(slot); err == nil || ok {
							t.Fatalf("%s at slot %d of %d = (%v, %v), want an error", k.name, slot, src.slots, ok, err)
						}
					}
					if ok, err := k.run(0); err != nil || !ok {
						t.Fatalf("%s at slot 0 after the refusals = (%v, %v)", k.name, ok, err)
					}
					if err := k.check(); err != nil {
						t.Fatalf("%s: %v", k.name, err)
					}
				}
			})
		}
	}
}

// TestGenerators checks determinism and structural invariants.
func TestGenerators(t *testing.T) {
	a, b := graph.Rand(100, 300, 5), graph.Rand(100, 300, 5)
	if a.Arcs() != b.Arcs() {
		t.Fatal("Rand is not deterministic")
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("Rand is not deterministic")
		}
	}
	if c := graph.Rand(100, 300, 6); c.Arcs() == a.Arcs() {
		// Different seeds almost surely drop different numbers of self-loops;
		// if the counts agree, the contents must still differ somewhere.
		same := true
		for i := range c.Adj {
			if c.Adj[i] != a.Adj[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("Rand ignores its seed")
		}
	}
	// Grid: interior degree 4, corner degree 2, symmetric arc count.
	gr := graph.Grid(4, 5)
	if gr.Degree(0) != 2 {
		t.Errorf("grid corner degree = %d, want 2", gr.Degree(0))
	}
	if gr.Degree(1*5+2) != 4 {
		t.Errorf("grid interior degree = %d, want 4", gr.Degree(7))
	}
	// Symmetry of all generators: u→v implies v→u.
	for name, g := range map[string]*graph.Graph{
		"rand": a, "grid": gr, "rmat": graph.RMAT(64, 200, 3),
	} {
		for u := 0; u < g.N; u++ {
			for _, v := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
				if !g.HasArc(int(v), u) {
					t.Fatalf("%s: arc %d→%d has no reverse", name, u, v)
				}
			}
		}
	}
	// Generate: kind dispatch and the error path.
	if _, err := graph.Generate("rand", 50, 100, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.Generate("warp", 50, 100, 1); err == nil {
		t.Fatal("Generate(warp) should fail")
	}
}

// TestGraphFaultTolerance runs each graph algorithm on the model engine
// under soft faults, a scripted fault, and a hard fault — the CAM claims and
// ping-pong phases must replay idempotently. (The catalog-wide sweep in
// package ppm covers this too; this is the direct regression.)
func TestGraphFaultTolerance(t *testing.T) {
	g := graph.Rand(256, 512, 13)
	scenarios := []struct {
		name string
		opts []ppm.Option
	}{
		{"soft", []ppm.Option{ppm.WithFaultRate(0.002)}},
		{"scripted", []ppm.Option{ppm.WithSoftFaultAt(0, 200), ppm.WithSoftFaultAt(1, 900)}},
		{"hard", []ppm.Option{ppm.WithHardFault(1, 700)}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, build := range []func() ppm.Algorithm{
				func() ppm.Algorithm { return graph.BFS("fault", g, 0) },
				func() ppm.Algorithm { return graph.Components("fault", g) },
				func() ppm.Algorithm { return graph.PageRank("fault", g, 6) },
			} {
				opts := append([]ppm.Option{
					ppm.WithProcs(2),
					ppm.WithSeed(23),
					ppm.WithMemWords(1 << 22),
					ppm.WithPoolWords(1 << 19),
				}, sc.opts...)
				rt := ppm.New(opts...)
				algo := build()
				algo.Build(rt)
				if !algo.Run() {
					t.Fatalf("%s: did not complete", algo.Name())
				}
				if err := algo.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// msbfsAlgo runs one fixed batch of a MultiBFS as a ppm.Algorithm.
type msbfsAlgo struct {
	*graph.MultiBFS
	sources []int
}

func (a msbfsAlgo) Run() bool {
	ok, err := a.RunBatch(a.sources)
	return ok && err == nil
}
func (a msbfsAlgo) Output() []uint64 { return a.Levels(0) }

// TestScanLeavesAllocateNothing: on the native engine starting a capsule
// allocates nothing. Tasks and joins come off per-worker free lists, argument
// words ride inline in the task and travel by value from Call, a Seq fills
// the worker's own step vectors, and a leaf takes every vector — slices,
// gathers, result buffers — from the worker's ephemeral memory, and the scan
// leaves fold their arc targets' words with FoldAt, which allocates nothing.
// The root task and join are made once per runtime; what a run still
// allocates is per run (its argument words, a MultiBFS batch's argument
// list), a few thousandths of an object per capsule at most of these sizes.
// One heap object per leaf, fork or phase would cost 0.25 or more; the mesh,
// 255 thin rounds of two capsules each, is where a per-phase object shows.
// Arc-budgeted leaves make the star's run short: 73 capsules over 9 leaves,
// so its one per-run object reads 0.014, and three more objects per run
// would fail it.
//
// The star row is cc's init at full weight: its init leaves read every arc
// and write the final labels, so the run is the init and one scan round that
// only writes zeros.
func TestScanLeavesAllocateNothing(t *testing.T) {
	g := graph.Rand(1<<12, 1<<14, 3)
	var spokes [][2]int
	for v := 1; v < 1<<12; v++ {
		spokes = append(spokes, [2]int{0, v}, [2]int{v, 0})
	}
	in := make([]uint64, 1<<14)
	for i := range in {
		in[i] = uint64(i*7919) % 1000
	}
	for _, tc := range []struct {
		name string
		algo ppm.Algorithm
	}{
		{"cc", graph.Components("alloc", g)},
		{"cc/star", graph.Components("alloc-star", graph.FromArcs(1<<12, spokes))},
		{"pagerank", graph.PageRank("alloc", g, 4)},
		{"bfs", graph.BFS("alloc", g, 0)},
		{"bfs/mesh", graph.BFS("alloc-mesh", graph.Grid(128, 128), 0)},
		{"msbfs", msbfsAlgo{graph.NewMultiBFS("alloc", g, 4), []int{0, 9, 9, 4000}}},
		{"prefixsum", ppm.PrefixSum("alloc", in, 0)},
		{"mergesort", ppm.MergeSort("alloc", in, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const limit = 0.05
			rt := newRT(ppm.EngineNative, 1)
			defer rt.Close()
			tc.algo.Build(rt)
			tc.algo.Run() // first use sizes the arena and fills the free lists
			before := rt.Stats().Capsules
			tc.algo.Run()
			capsules := float64(rt.Stats().Capsules - before)
			allocs := testing.AllocsPerRun(3, func() { tc.algo.Run() })
			per := allocs / capsules
			t.Logf("%.0f objects over %.0f capsules = %.4f per capsule", allocs, capsules, per)
			if per > limit {
				t.Fatalf("%.0f objects over %.0f capsules = %.3f per capsule, limit %.2f: something per capsule reaches the Go heap",
					allocs, capsules, per, limit)
			}
		})
	}
}
