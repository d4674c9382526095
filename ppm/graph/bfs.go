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

// grains is one engine's capsule sizes: vertices for the per-vertex leaves,
// frontier slots for the frontier leaves, entries plus arcs for fuse, and a
// budget of arcs plus leafVertexCost per vertex for the per-arc sweeps. A
// capsule may be replayed, so the paper requires f < 1/(2C) for the largest
// capsule work C, and C is counted in each engine's own unit.
//
// The per-arc sweeps — cc's init and scan, pagerank's scan, a BFS pull and
// its compaction, a MultiBFS sweep (over halves of the leaves, sweep.go)
// and Resident.Apply's deg and emit — run over a leaf table
// (leafTable): consecutive vertex ranges cut from the epoch-0 offsets so that
// a leaf's arcs plus leafVertexCost per vertex fit grains.leaf. Each leaf
// reads at most 5 words per vertex and 2 per arc (cc's scan; a pull reads 4
// per unvisited id and 2 per arc of those, pagerank's scan 2 and 2, and a
// sweep leaf up to 3 per arc over half a table leaf), so a
// leaf does at most ≈ 2·leaf words whatever the degrees, unless it is one
// vertex whose arcs alone pass the budget: a hub keeps a leaf of its own.
//
// The model engine charges a block transfer per claim and per GatherAt or
// FoldAt index, so leaves whose cost is per arc stay small enough that C is a few
// hundred transfers at typical degrees, under 1/(2f) at the f = 0.002 its
// fault sweeps use. Its leaf budget of 80 holds ≈ 11 vertices at degree 4,
// a largest cc leaf of ≈ 100 transfers. A budget of 60 kept every model
// row of TestCapsuleWorkUnderFaultCeiling at or under the C of the 16-vertex
// leaves before it, but cut the 128×128 mesh into ≈ 1 800 leaves, more
// closures in one phase than a 2^19-word pool holds at P = 1. Dense bulk
// leaves move whole blocks and take more vertices per capsule. Its fuse
// budget of 40 is one frontier leaf, 8 entries, at degree 4.
//
// The native engine counts word accesses, and a capsule costs 26–32 ns to
// spawn and join (native.spawn_join_ns on a 2-core box) against a few ns per
// word, so its grains are coarser and a small frontier is swept by one
// capsule (frontier.go). A leaf budget of 2 048 keeps a per-arc leaf under
// ≈ 4 100 words: ≈ 186 vertices at degree 8, 539 leaves on Rand(100000,
// 400000), where halving to a 64-vertex grain made 2 048 leaves of ≈ 49,
// and 56 on the 128×128 mesh, where it made 256. The per-vertex leaves take
// 1 024 vertices and move ≈ 2 050 words: bfs's init writes two vectors,
// pagerank's init reads the offsets and writes the contributions (the ranks
// too at one iteration), and Apply's offs copies the prefix sums. A step
// does ≈ 3 words per entry and, when most targets are new, ≈ 5 per arc: the
// gather, the CAM, its read-back, the frontier SetRange and the level
// ScatterAt; an arc to a vertex already claimed pays only the first three.
// The fuse count is a budget of entries plus arcs, turned into entries at
// the graph's average degree: 1 280 is 142 entries at degree 8, 257 on a
// mesh and 256 on a degree-4 random graph. A flat 256 entries let the
// catalog BFS on Rand(16384, 65536) reach 8 440 words, past the 5 000 that
// f = 1e-4 allows. On that input,
// Rand(32768, 131072), Rand(32768, 65536) and the 128×128 mesh the largest
// capsule of cc, pagerank, an 8-wide MultiBFS and a 64-edge Resident.Apply
// stays under 5 000 words (TestCapsuleWorkUnderFaultCeiling), and so does
// bfs's, except at degree 4 on a random graph, where most of a fused round's
// 1 024 arcs find new vertices: the bfs step on Rand(32768, 65536, 22) does
// 6 272 words, a row the test logs without asserting. The average degree
// bounds a step's C only on average: a frontier of hubs can still pass
// 5 000, in a step or in a tree leaf, and so can a hub's own leaf.
//
// A pulling BFS round (frontier.go) sweeps every leaf of every row of the
// search: a leaf reads and writes its range's levels and gathers the arcs of
// its unvisited ids only, so a leaf does at most 4 words per id and 2 per
// arc of the unvisited ones, under ≈ 2·leaf words however many of its ids
// are still unvisited.
//
// The table depends on the engine alone, and the fuse count in entries and
// the leaf table on the engine and the graph, never on a measurement: the
// exact capsule counters must not depend on the machine, and a recovered
// runtime must rebuild the crashed one's trees, because a BFS down sweep
// reads the partial sums its up sweep (or compaction those its pull) left at
// tree-node indices. The leaf table is in persistent memory besides, so a
// recovered runtime reads the one the crashed runtime stored.
type grains struct {
	frontier int // frontier leaves: a CAM and a read-back per arc dominate
	leaf     int // per-arc leaves: arcs plus leafVertexCost per vertex (leafTable)
	dense    int // bulk per-vertex leaves (inits, offsets)
	fuse     int // a BFS round is one capsule up to this many entries plus arcs
}

var (
	modelGrains  = grains{frontier: 8, leaf: 80, dense: 64, fuse: 40}
	nativeGrains = grains{frontier: 32, leaf: 2048, dense: 1024, fuse: 1280}
)

// leafVertexCost is what a vertex weighs in a leaf table besides its arcs:
// with it, a leaf's arcs plus its vertices' weight bound the words every
// per-arc leaf reads and writes (see grains).
const leafVertexCost = 3

// The BFS direction rule (roundKind, frontier.go) on both engines: a round
// pulls while its frontier holds at least 1/pullFrontier of the search's
// rows·n ids, and a pushing round turns to pull only once the frontier also
// holds at least 1/pullUnvisited of the ids not yet reached. The first is
// Beamer et al.'s β = 24; the second is their α test, which compares arcs
// with α = 14, counted in ids. On Rand(100000, 400000) the search pushes
// four rounds (the last two trees of 616 and 4 846 entries), pulls for the
// frontiers of 30 371, 58 430 and 5 588, and compacts back to push the last
// 20 entries. The 128×128 mesh never holds 683 ids in its frontier and only
// pushes. They are constants, not measurements, for the same reason the
// grains are.
const (
	pullFrontier  = 24
	pullUnvisited = 8
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

// bfs is breadth-first search from one source: a MultiBFS whose every batch
// is that source, run as a ppm.Algorithm. The batch is set at construction,
// so Output and Verify also read a search that Resume finished on a
// recovered runtime.
type bfs struct{ *MultiBFS }

// BFS builds a breadth-first search over g from src, the width-1 case of
// MultiBFS. Output is the level (hop distance) of every vertex, INF
// (all-ones) for unreachable ones; Verify is MultiBFS.Verify. Its programs
// register as bfs/<tag>, apart from a MultiBFS's msbfs/<tag>, so the two
// kernels may share a tag on one runtime.
func BFS(tag string, g Source, src int) ppm.Algorithm {
	if n, _ := g.size(); src < 0 || src >= n {
		panic(fmt.Sprintf("graph: BFS source %d out of range for n=%d", src, n))
	}
	return bfs{&MultiBFS{binding: binding{src: g}, kind: "bfs", tag: tag, kMax: 1, lastSrcs: []int{src}}}
}

func (a bfs) Run() bool { return a.run(a.lastSrcs[0]) }

func (a bfs) Output() []uint64 { return a.Levels(0) }

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

// sameTree checks one search row's claimant words as its BFS tree: the
// source claims itself, an unreached vertex has no claimant, and any other
// vertex's claimant is a neighbour one level up. Claimant words hold
// combined ids, so the row's base is subtracted first.
func sameTree(g *Graph, src int, level, owner []uint64, base uint64) error {
	children := make(map[int][]int) // claimed parent -> vertices to arc-check
	for v := range level {
		switch {
		case v == src:
			if owner[v] != base+uint64(src) {
				return fmt.Errorf("parent[src] = %d, want %d", owner[v]-base, src)
			}
		case level[v] == inf:
			if owner[v] != nilParent {
				return fmt.Errorf("unreachable vertex %d has parent %d", v, owner[v]-base)
			}
		default:
			p := int(owner[v] - base)
			if p < 0 || p >= g.N {
				return fmt.Errorf("parent[%d] = %d out of range", v, owner[v]-base)
			}
			if level[p] != level[v]-1 {
				return fmt.Errorf("parent[%d] = %d at level %d, want level %d", v, p, level[p], level[v]-1)
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
		for _, w := range g.Adj[g.Offs[p]:g.Offs[p+1]] {
			delete(targets, int(w))
		}
		for v := range targets {
			return fmt.Errorf("parent[%d] = %d is not a neighbour", v, p)
		}
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
