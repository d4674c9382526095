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
	if n := g.epoch0().N; src < 0 || src >= n {
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
