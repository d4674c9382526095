package graph_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/ppm"
	"repro/ppm/graph"
)

// ccRun runs connected components over g on a runtime of procs processors,
// checks the labels against the union-find reference, and returns the
// capsules the run executed. A round is a fixed number of capsules for a
// fixed leaf count (one ParallelFor tree over g's leaf table, a check and a
// driver), so capsule counts measure rounds without a counter in the kernel.
// The model engine counts its scheduler's capsules too, and those are
// deterministic only when no processor idles, so it runs with one.
func ccRun(t *testing.T, eng ppm.Engine, procs int, g *graph.Graph, opts ...ppm.Option) int64 {
	t.Helper()
	rt := newRT(eng, procs, opts...)
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

// ccRoundsFrom returns the scan rounds a run of got capsules took, the last
// (unchanged) one included, given the capsules of an edgeless graph (one
// round) and of the path 0—1—2 (two: the init writes label propagation's
// first round, [0, 0, 1], and one scan lowers vertex 2) with the same leaf
// count: their difference is the capsules of one round.
func ccRoundsFrom(t *testing.T, eng ppm.Engine, one, two, got int64) int {
	t.Helper()
	if two <= one || got < one || (got-one)%(two-one) != 0 {
		t.Fatalf("%s: capsules %d are not %d + k·%d", eng, got, one, two-one)
	}
	return 1 + int((got-one)/(two-one))
}

// ccBaselines runs an edgeless graph and the path 0—1—2 with the given leaf
// count on eng, for ccRoundsFrom. Both have the fewest vertices that make
// an edgeless graph that many leaves; the path's three heavier vertices move
// no leaf past the last, which that fewest count leaves one vertex.
func ccBaselines(t *testing.T, eng ppm.Engine, procs, leaves int, opts ...ppm.Option) (one, two int64) {
	t.Helper()
	lo, hi := 3, 3
	for graph.Leaves(eng, graph.FromArcs(hi, nil)) < leaves {
		lo, hi = hi+1, 2*hi
	}
	for lo < hi {
		if mid := (lo + hi) / 2; graph.Leaves(eng, graph.FromArcs(mid, nil)) < leaves {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	edgeless, path := graph.FromArcs(lo, nil), graph.FromArcs(lo, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}})
	if a, b := graph.Leaves(eng, edgeless), graph.Leaves(eng, path); a != leaves || b != leaves {
		t.Fatalf("%s: baselines on %d vertices have %d and %d leaves, want %d", eng, lo, a, b, leaves)
	}
	return ccRun(t, eng, procs, edgeless, opts...), ccRun(t, eng, procs, path, opts...)
}

// ccRounds returns the scan rounds cc takes on g: one processor on the
// model, two on the native engine.
func ccRounds(t *testing.T, eng ppm.Engine, g *graph.Graph) int {
	t.Helper()
	procs := 2
	if eng == ppm.EngineModel {
		procs = 1
	}
	one, two := ccBaselines(t, eng, procs, graph.Leaves(eng, g))
	return ccRoundsFrom(t, eng, one, two, ccRun(t, eng, procs, g))
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
// changed[0] set, as the path 0—1—2 does (its init writes [0, 0, 1] and the
// first scan lowers vertex 2). The rounds of the next run on that runtime
// must depend on its graph alone: once edge 0—1 is deleted the init writes
// the final [0, 1, 1], so one round, not the two the stale flag would buy.
func TestCCResidentRoundsForgetLastRun(t *testing.T) {
	for _, eng := range bothEngines {
		rt := newRT(eng, 1)
		res := graph.NewResident("stale", graph.FromArcs(64, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}}), 2, 0, 2)
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
		if out := cc.Output(); out[1] != 1 || out[2] != 1 {
			t.Errorf("%s: labels[1:3] = %v after edge 0—1 was deleted, want [1 1]", eng, out[1:3])
		}
		if capsules[1] >= capsules[0] {
			t.Errorf("%s: %d capsules on the edgeless epoch, %d with the edge: a stale flag bought a round",
				eng, capsules[1], capsules[0])
		}
		rt.Close()
	}
}

// FuzzComponents runs connectivity on small multigraphs built from the fuzz
// input (fuzzMultigraph) on the native engine at P = 1 and 2 and on the model
// at P = 1. Labels must equal the union-find reference, and no run may take
// more rounds than label propagation on the same graph.
func FuzzComponents(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2})                                      // the path 0—1—2
	f.Add([]byte{20, 1, 0, 0, 5, 5, 5, 5, 6, 5, 6, 7, 1})                   // 0 isolated, a self-loop, a duplicate
	f.Add([]byte{45, 2, 9, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9}) // a permuted path
	f.Add([]byte{30, 3, 4, 0, 1, 0, 2, 0, 3, 3, 3, 10, 11, 11, 12, 12, 10}) // permuted, 0 isolated
	// One runtime per run; small memories keep an input's nine runs cheap.
	small := []ppm.Option{ppm.WithMemWords(1 << 16), ppm.WithPoolWords(1 << 14)}
	type config struct {
		eng    ppm.Engine
		procs  int
		leaves int
	}
	baselines := map[config][2]int64{}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzMultigraph(data)
		lp := lpRounds(g)
		for _, cfg := range []config{
			{ppm.EngineNative, 1, 0}, {ppm.EngineNative, 2, 0}, {ppm.EngineModel, 1, 0},
		} {
			cfg.leaves = graph.Leaves(cfg.eng, g)
			b, ok := baselines[cfg]
			if !ok {
				b[0], b[1] = ccBaselines(t, cfg.eng, cfg.procs, cfg.leaves, small...)
				baselines[cfg] = b
			}
			got := ccRun(t, cfg.eng, cfg.procs, g, small...) // Verify: labels are exact
			if rounds := ccRoundsFrom(t, cfg.eng, b[0], b[1], got); rounds > lp {
				t.Fatalf("%s P=%d, n=%d arcs %v: %d rounds, label propagation takes %d",
					cfg.eng, cfg.procs, g.N, g.Adj, rounds, lp)
			}
		}
	})
}

// FuzzPageRank runs iters = 1 + k mod 4 PageRank iterations, which covers a
// run whose init writes the previous ranks (K = 1) and one whose every
// iteration writes ranks (K = 2), over a Resident holding a fuzzed
// multigraph (fuzzMultigraph) on the native engine at P = 1 and 2 and on the
// model at P = 1. Verify must hold, and the ranks must equal
// PageRankResidentRef bit for bit.
func FuzzPageRank(f *testing.F) {
	f.Add([]byte{}, uint8(0))                                // edgeless: every vertex dangling
	f.Add([]byte{4, 0, 0, 2, 2, 0, 1}, uint8(1))             // a self-loop beside an edge
	f.Add([]byte{5, 0, 0, 1, 2, 1, 2, 2, 3}, uint8(2))       // a duplicate arc
	f.Add([]byte{9, 1, 0, 0, 1, 1, 2, 2, 3, 4, 5}, uint8(3)) // 0 isolated
	small := []ppm.Option{ppm.WithMemWords(1 << 16), ppm.WithPoolWords(1 << 14)}
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		g := fuzzMultigraph(data)
		iters := 1 + int(k%4)
		want := graph.PageRankResidentRef(g, iters)
		for _, cfg := range []struct {
			eng   ppm.Engine
			procs int
		}{{ppm.EngineNative, 1}, {ppm.EngineNative, 2}, {ppm.EngineModel, 1}} {
			rt := newRT(cfg.eng, cfg.procs, small...)
			defer rt.Close()
			res := graph.NewResident("fuzz", g, 2, 0, 1)
			res.Build(rt)
			pr := graph.PageRank("fuzz", res, iters)
			pr.Build(rt)
			if !pr.Run() {
				t.Fatalf("%s P=%d: did not complete", cfg.eng, cfg.procs)
			}
			if err := pr.Verify(); err != nil {
				t.Fatalf("%s P=%d, n=%d arcs %v, %d iterations: %v", cfg.eng, cfg.procs, g.N, g.Adj, iters, err)
			}
			if got := pr.Output(); !slices.Equal(got, want) {
				t.Fatalf("%s P=%d, n=%d arcs %v, %d iterations: ranks %x, want %x",
					cfg.eng, cfg.procs, g.N, g.Adj, iters, got, want)
			}
		}
	})
}

// fuzzMultigraph builds a symmetric multigraph from fuzz bytes: n = 3 +
// data[0] mod 48, flags data[1] (bit 0: vertex 0 isolated, bit 1: ids
// permuted by the seed data[2]), then one undirected edge per byte pair, so
// an equal pair is a self-loop and a repeated pair a duplicate arc.
func fuzzMultigraph(data []byte) *graph.Graph {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n, flags := 3+at(0)%48, at(1)
	perm := make([]int, n)
	for v := range perm {
		perm[v] = v
	}
	if flags&2 != 0 {
		perm = rand.New(rand.NewSource(int64(at(2)))).Perm(n)
	}
	var arcs [][2]int
	for i := 3; i+1 < len(data); i += 2 {
		u, v := perm[int(data[i])%n], perm[int(data[i+1])%n]
		if flags&1 != 0 && (u == 0 || v == 0) {
			continue
		}
		arcs = append(arcs, [2]int{u, v}, [2]int{v, u})
	}
	return graph.FromArcs(n, arcs)
}
