package graph_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/ppm"
	"repro/ppm/graph"
)

// ccRun runs connected components over g, checks the labels against the
// union-find reference, and returns the capsules the run executed. A round
// is a fixed number of capsules for a fixed n (one ParallelFor tree, a check
// and a driver), so capsule counts measure rounds without a counter in the
// kernel. The model engine counts its scheduler's capsules too, and those are
// deterministic only when no processor idles, so it runs with one.
func ccRun(t *testing.T, eng ppm.Engine, g *graph.Graph) int64 {
	t.Helper()
	procs := 2
	if eng == ppm.EngineModel {
		procs = 1
	}
	rt := newRT(eng, procs)
	defer rt.Close()
	algo := graph.Components("rounds", g)
	algo.Build(rt)
	before := rt.Stats().Capsules
	if !algo.Run() {
		t.Fatalf("%s: did not complete", eng)
	}
	if err := algo.Verify(); err != nil {
		t.Fatalf("%s: %v", eng, err)
	}
	return rt.Stats().Capsules - before
}

// ccRounds returns the scan rounds cc takes on g, the last (unchanged) one
// included. An edgeless graph takes one round and a single edge two; their
// difference is the capsules of one round at this n.
func ccRounds(t *testing.T, eng ppm.Engine, g *graph.Graph) int {
	t.Helper()
	one := ccRun(t, eng, graph.FromArcs(g.N, nil))
	two := ccRun(t, eng, graph.FromArcs(g.N, [][2]int{{0, 1}, {1, 0}}))
	got := ccRun(t, eng, g)
	if two <= one || got < one || (got-one)%(two-one) != 0 {
		t.Fatalf("%s: capsules %d are not %d + k·%d", eng, got, one, two-one)
	}
	return 1 + int((got-one)/(two-one))
}

// lpRounds counts the scan rounds of plain synchronous label propagation on
// g — next[v] = min(cur[v], min over neighbours u of cur[u]) — the last,
// unchanged one included.
func lpRounds(g *graph.Graph) int {
	cur, next := make([]uint64, g.N), make([]uint64, g.N)
	for v := range cur {
		cur[v] = uint64(v)
	}
	for rounds := 1; ; rounds++ {
		changed := false
		for v := range cur {
			m := cur[v]
			for _, u := range g.Adj[g.Offs[v]:g.Offs[v+1]] {
				m = min(m, cur[u])
			}
			next[v] = m
			changed = changed || m != cur[v]
		}
		if !changed {
			return rounds
		}
		cur, next = next, cur
	}
}

// permuted renames g's vertices by a seeded permutation, so ids carry no
// locality.
func permuted(g *graph.Graph, seed int64) *graph.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N)
	arcs := make([][2]int, 0, g.Arcs())
	for u := 0; u < g.N; u++ {
		for _, v := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			arcs = append(arcs, [2]int{perm[u], perm[v]})
		}
	}
	return graph.FromArcs(g.N, arcs)
}

func pathGraph(n int) *graph.Graph {
	arcs := make([][2]int, 0, 2*(n-1))
	for v := 0; v+1 < n; v++ {
		arcs = append(arcs, [2]int{v, v + 1}, [2]int{v + 1, v})
	}
	return graph.FromArcs(n, arcs)
}

// TestCCRounds pins what shortcutting buys and what it does not. With
// id-local labels the reach doubles every round, so the 128×128 mesh
// (diameter 254) converges in a dozen rounds, not 255. With permuted ids a
// pull-only kernel stays diameter-bound, but on no labelling does it take
// more rounds than label propagation.
func TestCCRounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		max  int // 0: bounded by lpRounds only
	}{
		{"grid128", graph.Grid(128, 128), 12},
		{"grid32/permuted", permuted(graph.Grid(32, 32), 5), 0},
		{"path", pathGraph(2000), 13},
		{"path/permuted", permuted(pathGraph(400), 9), 0},
		{"rand", graph.Rand(3000, 6000, 7), 0},
		{"rand/sparse", graph.Rand(3000, 2000, 11), 0},
	} {
		lp := lpRounds(tc.g)
		for _, eng := range bothEngines {
			rounds := ccRounds(t, eng, tc.g)
			t.Logf("%s/%s: %d rounds (label propagation: %d)", tc.name, eng, rounds, lp)
			if rounds > lp {
				t.Errorf("%s/%s: %d rounds, label propagation takes %d", tc.name, eng, rounds, lp)
			}
			if tc.max > 0 && rounds > tc.max {
				t.Errorf("%s/%s: %d rounds, want ≤ %d", tc.name, eng, rounds, tc.max)
			}
		}
	}
}

// TestCCFaultsWARAndRerun runs the shortcutting leaf and the two-flag check
// under soft faults with each engine's dynamic WAR checker live, twice on one
// runtime: labels must come out exact, no capsule may write a block it read,
// and the second run must cope with the flags the first one left set.
func TestCCFaultsWARAndRerun(t *testing.T) {
	// Permuted ids: enough rounds that both flags are set, cleared and reused.
	g := permuted(graph.Grid(24, 24), 3)
	for _, tc := range []struct {
		eng  ppm.Engine
		opts []ppm.Option
	}{
		{ppm.EngineModel, []ppm.Option{ppm.WithFaultRate(0.002), ppm.WithWARCheck()}},
		{ppm.EngineNative, []ppm.Option{ppm.WithFaultRate(1e-4), ppm.WithWARCheck()}},
	} {
		t.Run(string(tc.eng), func(t *testing.T) {
			rt := ppm.New(append([]ppm.Option{
				ppm.WithEngine(tc.eng),
				ppm.WithProcs(2),
				ppm.WithSeed(23),
				ppm.WithMemWords(1 << 22),
				ppm.WithPoolWords(1 << 19),
			}, tc.opts...)...)
			defer rt.Close()
			algo := graph.Components("fault", g)
			algo.Build(rt)
			for run := 0; run < 2; run++ {
				if !algo.Run() {
					t.Fatalf("run %d: did not complete", run)
				}
				if err := algo.Verify(); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
			}
			if rt.Stats().SoftFaults == 0 {
				t.Error("no fault was injected")
			}
			if vs := rt.WARViolations(); len(vs) != 0 {
				t.Fatalf("WAR violations:\n%s", strings.Join(vs, "\n"))
			}
		})
	}
}

// TestCCResidentRoundsForgetLastRun: a run that ends on an odd round leaves
// changed[0] set. The rounds of the next run on that runtime must depend on
// its graph alone: once the only edge is deleted, one round, not the two the
// stale flag would buy.
func TestCCResidentRoundsForgetLastRun(t *testing.T) {
	for _, eng := range bothEngines {
		rt := newRT(eng, 1)
		res := graph.NewResident("stale", graph.FromArcs(64, [][2]int{{0, 1}, {1, 0}}), 2, 0, 2)
		res.Build(rt)
		cc := graph.Components("stale", res)
		cc.Build(rt)
		var capsules [2]int64
		for epoch := range capsules {
			slot, _ := res.SlotFor(uint64(epoch))
			before := rt.Stats().Capsules
			if ok, err := cc.RunAt(slot); err != nil || !ok {
				t.Fatalf("%s: epoch %d: RunAt = (%v, %v)", eng, epoch, ok, err)
			}
			capsules[epoch] = rt.Stats().Capsules - before
			if epoch == 0 {
				if ok, err := res.Apply(graph.MutationBatch{Delete: [][2]int{{0, 1}}}); err != nil || !ok {
					t.Fatalf("%s: Apply = (%v, %v)", eng, ok, err)
				}
			}
		}
		if out := cc.Output(); out[1] != 1 {
			t.Errorf("%s: label[1] = %d after the edge was deleted, want 1", eng, out[1])
		}
		if capsules[1] >= capsules[0] {
			t.Errorf("%s: %d capsules on the edgeless epoch, %d with the edge: a stale flag bought a round",
				eng, capsules[1], capsules[0])
		}
		rt.Close()
	}
}
