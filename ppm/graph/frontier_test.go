package graph_test

import (
	"slices"
	"strings"
	"testing"

	"repro/ppm"
	"repro/ppm/graph"
)

// bfsRounds returns the rounds a search from src sweeps: one per level, plus
// the one that finds the frontier empty.
func bfsRounds(t *testing.T, g *graph.Graph, src int) int {
	t.Helper()
	rt := newRT(ppm.EngineNative, 1)
	defer rt.Close()
	algo := graph.BFS("rounds", g, src)
	algo.Build(rt)
	if !algo.Run() {
		t.Fatal("did not complete")
	}
	depth := uint64(0)
	for _, l := range algo.Output() {
		if l != ^uint64(0) {
			depth = max(depth, l)
		}
	}
	return int(depth) + 2
}

// TestBFSWorkIsFrontierSized pins the work of a search to its frontiers: a
// pushing round costs a constant plus what its frontier and that frontier's
// arcs cost, and a pulling round, which sweeps every id, runs only while the
// frontier holds 1/24 of them, so a whole search is O(n + arcs) words and
// O((n + arcs)/grain + rounds) capsules however many rounds it takes. A round
// that walked n — a dense flag, scan and scatter to compact its frontier, or
// a pull that never turned back — fails both bounds by more than 10×: the
// path has 4095 rounds of one vertex and the mesh 255 of a hundred-odd, and
// the lollipop, a random blob whose fat rounds pull, then pushes its 4000-
// vertex tail one vertex a round, but only if it compacts back to pushing.
// Native engine, one worker: the counts are exact.
func TestBFSWorkIsFrontierSized(t *testing.T) {
	path := [][2]int{}
	for v := 0; v+1 < 4096; v++ {
		path = append(path, [2]int{v, v + 1}, [2]int{v + 1, v})
	}
	for _, in := range []struct {
		name  string
		g     *graph.Graph
		pulls bool // the search has a pulling round
	}{
		{"path", graph.FromArcs(4096, path), false},
		{"mesh", graph.Grid(128, 128), false},
		{"lollipop", lollipop(4096, 4000), true},
	} {
		rounds := bfsRounds(t, in.g, 0)
		for _, tc := range []struct {
			name  string
			width int
			run   func(rt *ppm.Runtime) func() []string // runs, verifies, returns the round kinds
		}{
			{"bfs", 1, func(rt *ppm.Runtime) func() []string {
				algo := graph.BFS("work", in.g, 0)
				algo.Build(rt)
				return func() []string {
					if !algo.Run() {
						t.Fatal("did not complete")
					}
					if err := algo.Verify(); err != nil {
						t.Fatal(err)
					}
					return graph.RoundKinds(algo)
				}
			}},
			{"msbfs1", 1, msbfsWork(t, in.g, []int{0})},
			// Eight searches from one corner: every row sweeps the same rounds.
			{"msbfs8", 8, msbfsWork(t, in.g, []int{0, 0, 0, 0, 0, 0, 0, 0})},
		} {
			t.Run(in.name+"/"+tc.name, func(t *testing.T) {
				rt := newRT(ppm.EngineNative, 1)
				defer rt.Close()
				run := tc.run(rt)
				before := rt.Stats()
				kinds := run()
				after := rt.Stats()
				if pulls := slices.Contains(kinds, "pull"); pulls != in.pulls {
					t.Fatalf("rounds %v: pulls = %v, want %v", kinds, pulls, in.pulls)
				}
				capsules, words := after.Capsules-before.Capsules, after.Work-before.Work
				size := int64(tc.width * (in.g.N + in.g.Arcs()))
				grain := int64(graph.FrontierGrain(rt))
				if limit := 2*size/grain + 4*int64(rounds) + 64; capsules > limit {
					t.Errorf("%d capsules for %d rounds over n+arcs = %d: more than 2·(n+arcs)/grain + 4·rounds + 64 = %d",
						capsules, rounds, size, limit)
				}
				if limit := 8*size + 8*int64(rounds); words > limit {
					t.Errorf("%d words for %d rounds over n+arcs = %d: more than 8·(n+arcs) + 8·rounds = %d",
						words, rounds, size, limit)
				}
				t.Logf("%d rounds: %d capsules, %d words", rounds, capsules, words)
			})
		}
	}
}

// msbfsWork builds a MultiBFS over g and returns the batch from sources as a
// verified run that returns its round kinds.
func msbfsWork(t *testing.T, g *graph.Graph, sources []int) func(rt *ppm.Runtime) func() []string {
	return func(rt *ppm.Runtime) func() []string {
		ms := graph.NewMultiBFS("work", g, len(sources))
		ms.Build(rt)
		return func() []string {
			if ok, err := ms.RunBatch(sources); err != nil || !ok {
				t.Fatalf("RunBatch = (%v, %v)", ok, err)
			}
			if err := ms.Verify(); err != nil {
				t.Fatal(err)
			}
			return graph.RoundKinds(ms)
		}
	}
}

// lollipop is a random blob of blob vertices, four edges per vertex, with a
// path of tail vertices hanging off its last vertex. A search from vertex 0
// pulls the blob's fat rounds and then walks the tail one vertex a round.
func lollipop(blob, tail int) *graph.Graph {
	g := graph.Rand(blob, 4*blob, 11)
	arcs := [][2]int{}
	for u := 0; u < blob; u++ {
		for _, v := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			arcs = append(arcs, [2]int{u, int(v)})
		}
	}
	for v := blob - 1; v+1 < blob+tail; v++ {
		arcs = append(arcs, [2]int{v, v + 1}, [2]int{v + 1, v})
	}
	return graph.FromArcs(blob+tail, arcs)
}

// TestRoundKinds pins the direction rule round by round on the native
// engine (frontier sizes in the comments). A round pulls when its frontier
// holds 1/24 of the ids and, coming from a push, 1/8 of the unvisited ones;
// it keeps pulling while the first holds, and compacts back to pushing when
// it does not. The mesh's widest frontier, 128 entries, is far under
// 16384/24 = 683: it never pulls, and every round fits one step.
func TestRoundKinds(t *testing.T) {
	mesh := make([]string, 255)
	for i := range mesh {
		mesh[i] = "fused"
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want []string
	}{
		// 1 9 81 616 4846 30371 58430 5588 20: 4 846 entries are over 1/24
		// of the ids but under 1/8 of the 94 447 unvisited.
		{"rand-100k", graph.Rand(100000, 400000, 7), []string{
			"fused", "fused", "fused", "tree", "tree", "pull", "pull", "pull", "compact+fused"}},
		// 1 3 19 66 289 1105 3856 10250 12318 3761 380 33 3 at degree 4, a
		// fuse count of 256 entries.
		{"rand-32k", graph.Rand(32768, 65536, 7), []string{
			"fused", "fused", "fused", "fused", "tree", "tree", "pull", "pull", "pull", "pull",
			"compact+tree", "fused", "fused"}},
		{"mesh", graph.Grid(128, 128), mesh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(ppm.EngineNative, 2)
			defer rt.Close()
			algo := graph.BFS("kinds", tc.g, 0)
			algo.Build(rt)
			if !algo.Run() {
				t.Fatal("did not complete")
			}
			if err := algo.Verify(); err != nil {
				t.Fatal(err)
			}
			if got := graph.RoundKinds(algo); !slices.Equal(got, tc.want) {
				t.Errorf("rounds %v, want %v", got, tc.want)
			}
		})
	}
}

// hostileGraph is a multigraph built to break exactly-once emission: doubled
// and tripled arcs (one arc list claims a target more than once), self-loops
// on the source and on inner vertices (a vertex that is its own claimant
// must not re-emit itself), a hub whose arc list spans many frontier leaves'
// worth of targets, and a second route to every spoke so claims race.
func hostileGraph() *graph.Graph {
	const n, hub, spokes = 200, 1, 150
	arcs := [][2]int{}
	und := func(u, v, times int) {
		for ; times > 0; times-- {
			arcs = append(arcs, [2]int{u, v}, [2]int{v, u})
		}
	}
	arcs = append(arcs, [2]int{0, 0}, [2]int{0, 0}, [2]int{hub, hub}, [2]int{7, 7})
	und(0, hub, 2)
	for s := 0; s < spokes; s++ {
		und(hub, 2+s, 1+s%3)
		und(2+s, 2+(s+1)%spokes, 2) // a doubled ring through the spokes
	}
	for v := 2 + spokes; v+1 < n-4; v++ { // a tail off the ring; n-4… stay unreachable
		und(v-1, v, 1)
		und(v, v, 1)
	}
	return graph.FromArcs(n, arcs)
}

// TestFrontierEmitsExactlyOnce runs BFS and a MultiBFS batch with duplicate
// sources over the hostile multigraph, on both engines, under random and
// scripted soft faults and each engine's dynamic WAR checker. Verify holds
// levels and parents to the sequential reference and the sum of all frontier
// sizes to the number of reached vertices: a vertex emitted twice, by a
// doubled arc, a self-loop or a replayed leaf, keeps its level and fails
// that count. The 150 spokes are most of the graph, so both searches pull
// at least once: a pull leaf meets the doubled arcs and self-loops too, and
// the push after it starts from a compacted frontier.
func TestFrontierEmitsExactlyOnce(t *testing.T) {
	g := hostileGraph()
	for _, tc := range []struct {
		name string
		eng  ppm.Engine
		opts []ppm.Option
	}{
		{"model/soft", ppm.EngineModel, []ppm.Option{ppm.WithFaultRate(0.001), ppm.WithWARCheck()}},
		{"model/scripted", ppm.EngineModel, []ppm.Option{
			ppm.WithSoftFaultAt(0, 150), ppm.WithSoftFaultAt(1, 400), ppm.WithSoftFaultAt(0, 2500), ppm.WithWARCheck()}},
		{"native/soft", ppm.EngineNative, []ppm.Option{ppm.WithFaultRate(1e-4), ppm.WithWARCheck()}},
		{"native/clean", ppm.EngineNative, []ppm.Option{ppm.WithWARCheck()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := ppm.New(append([]ppm.Option{
				ppm.WithEngine(tc.eng),
				ppm.WithProcs(2),
				ppm.WithSeed(29),
				ppm.WithMemWords(1 << 22),
				ppm.WithPoolWords(1 << 19),
			}, tc.opts...)...)
			defer rt.Close()
			bfs := graph.BFS("hostile", g, 0)
			bfs.Build(rt)
			ms := graph.NewMultiBFS("hostile", g, 8)
			ms.Build(rt)
			for run := 0; run < 2; run++ { // the second run meets the first one's claims
				if !bfs.Run() {
					t.Fatalf("run %d: bfs did not complete", run)
				}
				if err := bfs.Verify(); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				graph.NextProgram(ms, "rows") // the sweep's run is TestMultiBFSSweepMatchesRows
				// Duplicate sources, the hub, a self-looped tail vertex, an
				// unreachable one.
				if ok, err := ms.RunBatch([]int{0, 0, 1, 7, 160, 0, 199}); err != nil || !ok {
					t.Fatalf("run %d: RunBatch = (%v, %v)", run, ok, err)
				}
				if err := ms.Verify(); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				// The spokes pull their parents off the hub and the ring.
				for name, kinds := range map[string][]string{"bfs": graph.RoundKinds(bfs), "msbfs": graph.RoundKinds(ms)} {
					if !slices.Contains(kinds, "pull") {
						t.Fatalf("run %d: %s rounds %v: no pull", run, name, kinds)
					}
				}
			}
			if strings.HasSuffix(tc.name, "/soft") && rt.Stats().SoftFaults == 0 {
				t.Error("no fault was injected")
			}
			if vs := rt.WARViolations(); len(vs) != 0 {
				t.Fatalf("WAR violations:\n%s", strings.Join(vs, "\n"))
			}
		})
	}
}
