package main

import (
	"math"
	"sort"

	"repro/ppm/graph"
)

// The five plain-Go references. They are the denominator of every
// *_vs_baseline ratio and the oracle every kernel output is compared with, so
// they use nothing from the runtime under test: host slices, one goroutine.

// unreached is the level the kernels give a vertex BFS never discovers.
const unreached = ^uint64(0)

// pagerankDamping is the damping factor of graph.PageRank.
const pagerankDamping = 0.85

// baselineBFS is a single-threaded queue BFS: the hop distance of every
// vertex from src, unreached where there is no path.
func baselineBFS(g *graph.Graph, src int) []uint64 {
	lvl := make([]uint64, g.N)
	for i := range lvl {
		lvl[i] = unreached
	}
	lvl[src] = 0
	queue := make([]uint32, 1, g.N)
	queue[0] = uint32(src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		next := lvl[u] + 1
		for _, w := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			if lvl[w] == unreached {
				lvl[w] = next
				queue = append(queue, uint32(w))
			}
		}
	}
	return lvl
}

// baselineCC labels every vertex with the minimum vertex id of its component,
// by union-find with path halving where the smaller root always wins.
func baselineCC(g *graph.Graph) []uint64 {
	parent := make([]uint32, g.N)
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < g.N; u++ {
		ru := find(uint32(u))
		for _, v := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			rv := find(uint32(v))
			switch {
			case ru < rv:
				parent[rv] = ru
			case rv < ru:
				parent[ru] = rv
				ru = rv
			}
		}
	}
	out := make([]uint64, g.N)
	for v := range out {
		out[v] = uint64(find(uint32(v)))
	}
	return out
}

// baselinePageRank runs iters rounds of pull PageRank and returns the ranks
// as float64 bit patterns. Out-degrees come from g; each vertex sums its
// contributions in the arc order of in, the in-edge CSR. graph.PageRank sums
// in reverse-CSR order (in = g.Reverse()); the resident kernel behind the
// server sums a symmetric graph's own lists (in = g). Fixing the order is
// what makes bit equality a fair demand.
func baselinePageRank(g, in *graph.Graph, iters int) []uint64 {
	n := g.N
	cur := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	for v := range cur {
		cur[v] = 1 / float64(n)
	}
	base := (1 - pagerankDamping) / float64(n)
	for it := 0; it < iters; it++ {
		for u := 0; u < n; u++ {
			contrib[u] = 0
			if d := g.Offs[u+1] - g.Offs[u]; d > 0 {
				contrib[u] = cur[u] / float64(d)
			}
		}
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range in.Adj[in.Offs[v]:in.Offs[v+1]] {
				sum += contrib[u]
			}
			next[v] = base + pagerankDamping*sum
		}
		cur, next = next, cur
	}
	out := make([]uint64, n)
	for v := range out {
		out[v] = math.Float64bits(cur[v])
	}
	return out
}

// baselinePrefixSum is the inclusive running sum.
func baselinePrefixSum(in []uint64) []uint64 {
	out := make([]uint64, len(in))
	var acc uint64
	for i, v := range in {
		acc += v
		out[i] = acc
	}
	return out
}

// baselineSort sorts a copy of in with sort.Slice.
func baselineSort(in []uint64) []uint64 {
	out := append([]uint64(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// labelRounds counts the rounds label propagation needs on g: every round
// each vertex takes the minimum label over itself and its neighbours from the
// previous round's labels, and the last round is the one that changes
// nothing. graph.Components does work proportional to rounds × arcs, so this
// is the shape parameter input generation pins (see pinnedShape).
func labelRounds(g *graph.Graph) int {
	cur := make([]uint32, g.N)
	next := make([]uint32, g.N)
	for i := range cur {
		cur[i] = uint32(i)
	}
	for rounds := 1; ; rounds++ {
		changed := false
		for v := 0; v < g.N; v++ {
			m := cur[v]
			for _, w := range g.Adj[g.Offs[v]:g.Offs[v+1]] {
				if cur[w] < m {
					m = cur[w]
				}
			}
			next[v] = m
			changed = changed || m != cur[v]
		}
		cur, next = next, cur
		if !changed {
			return rounds
		}
	}
}

// bfsSummary reduces a level array to what a BFS answer of the server
// carries: vertices reached, the deepest finite level, and the server's
// checksum over the finite levels in vertex order.
func bfsSummary(lvl []uint64) (reached int, depth, checksum uint64) {
	for _, l := range lvl {
		if l == unreached {
			continue
		}
		reached++
		if l > depth {
			depth = l
		}
		checksum = checksum*31 + l + 1
	}
	return reached, depth, checksum
}

// ccSummary reduces component labels to the server's cc answer: the number
// of components and its label checksum.
func ccSummary(labels []uint64) (components int, checksum uint64) {
	seen := make(map[uint64]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
		checksum += l * 31
	}
	return len(seen), checksum
}

// rankChecksum is the server's checksum over PageRank bit patterns.
func rankChecksum(ranks []uint64) (checksum uint64) {
	for _, r := range ranks {
		checksum = checksum*31 + r
	}
	return checksum
}
