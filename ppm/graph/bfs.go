package graph

import (
	"fmt"

	"repro/ppm"
)

// inf marks an undiscovered vertex's level; nilParent an unset parent slot.
const (
	inf       = ^uint64(0)
	nilParent = ^uint64(0)
)

// grains is one engine's capsule sizes, in vertices (frontier slots for the
// frontier leaves; entries plus arcs for fuse). A capsule may be replayed, so
// the paper requires f < 1/(2C) for the largest capsule work C, and C is
// counted in each engine's own unit.
//
// The model engine charges a block transfer per claim and per GatherAt
// index, so leaves whose cost is per arc stay small enough that C is a few
// hundred transfers at typical degrees, under 1/(2f) at the f = 0.002 its
// fault sweeps use. Dense bulk leaves move whole blocks and take more
// vertices per capsule. Its fuse budget of 40 is one frontier leaf, 8
// entries, at degree 4.
//
// The native engine counts word accesses, and a capsule costs 26–32 ns to
// spawn and join (native.spawn_join_ns on a 2-core box) against a few ns per
// word, so its grains are four times coarser and a small frontier is swept
// by one capsule (frontier.go). A step does ≈ 3 words per entry and ≈ 3 per
// arc, so the fuse count is a budget of entries plus arcs, turned into
// entries at the graph's average degree: 1 280 is 142 entries at degree 8
// (≈ 4 000 words) and 257 on a mesh (≈ 4 400). A flat 256 entries let the
// catalog BFS on Rand(16384, 65536) reach 8 440 words, past the 5 000 that
// f = 1e-4 allows. On that input, Rand(32768, 131072) and the 128×128 mesh
// the largest capsule of bfs, cc, pagerank, an 8-wide MultiBFS and a 64-edge
// Resident.Apply does at most 4 323 words, the MultiBFS on the mesh
// (TestCapsuleWorkUnderFaultCeiling). The average degree bounds C only on
// average: a frontier of hubs can still pass 5 000, in a step or in a tree
// leaf.
//
// The table depends on the engine alone, and the fuse count in entries on
// the engine and the graph, never on a measurement: the exact capsule
// counters must not depend on the machine, and a recovered runtime must
// rebuild the crashed one's trees, because a BFS down sweep reads the partial
// sums its up sweep left at tree-node indices.
type grains struct {
	frontier int // frontier leaves: a CAM and a read-back per arc dominate
	scan     int // per-arc gather leaves (cc scan, pagerank scan, apply deg/emit)
	dense    int // bulk per-vertex leaves (init, contrib, offsets)
	fuse     int // a BFS round is one capsule up to this many entries plus arcs
}

var (
	modelGrains  = grains{frontier: 8, scan: 16, dense: 64, fuse: 40}
	nativeGrains = grains{frontier: 32, scan: 64, dense: 256, fuse: 1280}
)

// psumLeaf is the prefix-tree base case on both engines: its leaves read
// contiguous blocks, so their cost per vertex is small on either.
const psumLeaf = 512

// grainsFor returns the grain table of the engine rt runs on.
func grainsFor(rt *ppm.Runtime) grains {
	if rt.Engine() == ppm.EngineNative {
		return nativeGrains
	}
	return modelGrains
}

// bfsAlgo is frontier-based breadth-first search: the one-row case of the
// frontier round driver (frontier.go). The claimant word of a vertex is its
// parent — racing claimants and fault replays are both resolved by the CAM
// parent[v]: NIL → u, and any winner is a valid level-(d-1) neighbour — and
// each round is WAR-free over ping-pong frontier buffers: one capsule when
// the frontier fits the engine's fuse budget, else two root-chain
// phases, claim and count up a tree over the frontier, emit down it. Depth is
// O(diameter) rounds; work per round is O(frontier + frontier arcs), so a
// whole search is O(n + arcs) however many rounds it takes.
type bfsAlgo struct {
	tag string
	g   *Graph
	src int

	rt   *ppm.Runtime
	fr   *frontier // level = fr.level, parent = fr.owner
	root ppm.FuncRef
}

// BFS builds a breadth-first search over g from src. Output is the level
// (hop distance) of every vertex, INF (all-ones) for unreachable ones;
// Verify checks the levels against a sequential BFS, the parent array for
// tree validity (every parent is a level-(d-1) neighbour), and that the
// rounds swept every reached vertex exactly once.
func BFS(tag string, g *Graph, src int) ppm.Algorithm {
	if src < 0 || src >= g.N {
		panic(fmt.Sprintf("graph: BFS source %d out of range for n=%d", src, g.N))
	}
	return &bfsAlgo{tag: tag, g: g, src: src}
}

func (a *bfsAlgo) Name() string { return "bfs/" + a.tag }

func (a *bfsAlgo) Build(rt *ppm.Runtime) {
	a.rt = rt
	n := a.g.N
	name := "graph/bfs/" + a.tag
	// A standalone search reads slot 0 of a one-slot CSR: the slot word keeps
	// its zero value.
	a.fr = newFrontier(rt, name, bindCSR(rt, nil, a.g, rt.NewArray(1)), a.g, 1)
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		c.Seq(a.fr.init.Call(n), a.fr.seed.Call(a.src), a.fr.round.Call(1, 0, 0))
	})
}

func (a *bfsAlgo) Run() bool { return a.rt.Run(a.root) }

// Output returns the level of every vertex (INF for unreachable).
func (a *bfsAlgo) Output() []uint64 { return a.fr.level.Snapshot() }

func (a *bfsAlgo) Verify() error {
	want := bfsReference(a.g, a.src)
	got := a.Output()
	if err := sameLevels(got, want, a.fr.visited.Snapshot()[0]); err != nil {
		return fmt.Errorf("%s: %w", a.Name(), err)
	}
	// Parent validity: the tree rooted at src must step down exactly one
	// level along an existing arc.
	par := a.fr.owner.Snapshot()
	children := make(map[int][]int) // claimed parent -> vertices to arc-check
	for v := 0; v < a.g.N; v++ {
		switch {
		case v == a.src:
			if par[v] != uint64(a.src) {
				return fmt.Errorf("%s: parent[src] = %d, want %d", a.Name(), par[v], a.src)
			}
		case got[v] == inf:
			if par[v] != nilParent {
				return fmt.Errorf("%s: unreachable vertex %d has parent %d", a.Name(), v, par[v])
			}
		default:
			p := int(par[v])
			if p < 0 || p >= a.g.N {
				return fmt.Errorf("%s: parent[%d] = %d out of range", a.Name(), v, par[v])
			}
			if want[p] != want[v]-1 {
				return fmt.Errorf("%s: parent[%d] = %d at level %d, want level %d",
					a.Name(), v, p, want[p], want[v]-1)
			}
			children[p] = append(children[p], v)
		}
	}
	// Arc existence, grouped by parent so each adjacency list is scanned
	// once (per-vertex HasArc would be quadratic in hub degree on
	// power-law graphs).
	for p, vs := range children {
		targets := make(map[int]bool, len(vs))
		for _, v := range vs {
			targets[v] = true
		}
		for _, w := range a.g.Adj[a.g.Offs[p]:a.g.Offs[p+1]] {
			delete(targets, int(w))
		}
		for v := range targets {
			return fmt.Errorf("%s: parent[%d] = %d is not a neighbour", a.Name(), v, p)
		}
	}
	return nil
}

// sameLevels checks the levels of one or more search rows against their
// references, and the rounds' work against the output: visited, the sum of
// all frontier sizes, must be the number of reached vertices — a vertex
// emitted twice keeps its level but is swept, with its whole subtree, twice.
func sameLevels(got, want []uint64, visited uint64) error {
	reached := uint64(0)
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("level[%d] = %d, want %d", v, got[v], want[v])
		}
		if want[v] != inf {
			reached++
		}
	}
	if visited != reached {
		return fmt.Errorf("rounds swept %d frontier entries for %d reached vertices", visited, reached)
	}
	return nil
}

// bfsReference is the sequential queue BFS the parallel levels must match.
func bfsReference(g *Graph, src int) []uint64 {
	lvl := make([]uint64, g.N)
	for i := range lvl {
		lvl[i] = inf
	}
	lvl[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			if lvl[w] == inf {
				lvl[w] = lvl[u] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return lvl
}
