// Package graph is the engine-portable parallel graph subsystem of the
// Parallel-PM runtime: a compressed-sparse-row adjacency layout stored in
// ppm.Arrays, deterministic generators (uniform random, grid, RMAT-style
// power-law), and three frontier/round-structured kernels — multi-source
// BFS (BFS is its width-1 case), shortcutting label-propagation connected
// components, and pull-style PageRank — each one type with self-verification
// against a sequential reference. A kernel reads a Source: a *Graph, loaded
// into one slot of persistent memory at Build, or a *Resident, the
// epoch-versioned ring that mutation batches commit to, read at the slot
// each run names.
//
// Every capsule in this package is write-after-read conflict free, so the
// same program runs on the model engine (block-transfer cost accounting,
// fault injection and replay) and on the native goroutine engine unchanged;
// vertices discovered racily use CAM, the model's only safe read-modify-
// write. A BFS round is sized by its frontier, never by n: one driver
// (frontier.go) sweeps a small frontier in one capsule, one root-chain phase,
// and a larger one in two, claiming and counting up a fork-join tree over
// its slots and emitting down it, for BFS and MultiBFS alike. Capsule grains
// come from a per-engine table (bfs.go). The bulk edge reads are batched: a
// frontier leaf Gathers the adjacency lists of all its vertices in one
// multi-range operation and reads its targets' claimant words back with one
// GatherAt, and a scan leaf over a contiguous vertex range reads its arcs as
// one Slice and the per-arc labels or contributions with one GatherAt. The
// model charges each as a single round of block transfers; the native engine
// runs each as one tight loop into the worker's ephemeral memory, so a leaf
// allocates nothing on the Go heap.
//
// Importing this package (even blank) registers bfs, cc, and pagerank in
// ppm.Catalog(), so catalog-driven benchmarks, fault sweeps, and tests pick
// the graph workloads up automatically.
package graph

import (
	"fmt"

	"repro/internal/rng"
	"repro/ppm"
)

// Graph is a directed graph in compressed-sparse-row form, held host-side
// until an algorithm's Build loads it into a runtime's persistent memory.
// The arcs of vertex v are Adj[Offs[v]:Offs[v+1]]. The generators in this
// package produce symmetric graphs (every undirected edge becomes two arcs),
// which is what BFS and connectivity want; FromArcs accepts any arc list.
type Graph struct {
	N    int
	Offs []uint64 // length N+1, arc offsets per vertex
	Adj  []uint64 // arc targets, grouped by source vertex
}

// FromArcs builds a CSR graph over n vertices from an explicit arc list
// (counting sort on the source vertex; per-vertex arc order follows the
// input order, which keeps every downstream computation deterministic).
func FromArcs(n int, arcs [][2]int) *Graph {
	offs := make([]uint64, n+1)
	for _, a := range arcs {
		if a[0] < 0 || a[0] >= n || a[1] < 0 || a[1] >= n {
			panic(fmt.Sprintf("graph: arc (%d,%d) out of range for n=%d", a[0], a[1], n))
		}
		offs[a[0]+1]++
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	adj := make([]uint64, len(arcs))
	next := make([]uint64, n)
	copy(next, offs[:n])
	for _, a := range arcs {
		adj[next[a[0]]] = uint64(a[1])
		next[a[0]]++
	}
	return &Graph{N: n, Offs: offs, Adj: adj}
}

// Arcs returns the number of directed arcs (twice the edge count for the
// symmetric graphs the generators produce).
func (g *Graph) Arcs() int { return len(g.Adj) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int { return int(g.Offs[v+1] - g.Offs[v]) }

// HasArc reports whether the arc u→v exists (linear scan of u's list).
func (g *Graph) HasArc(u, v int) bool {
	for _, w := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Reverse returns the transpose graph (arc u→v becomes v→u), the in-edge
// CSR pull-style PageRank iterates over.
func (g *Graph) Reverse() *Graph {
	offs := make([]uint64, g.N+1)
	for _, v := range g.Adj {
		offs[v+1]++
	}
	for v := 0; v < g.N; v++ {
		offs[v+1] += offs[v]
	}
	adj := make([]uint64, len(g.Adj))
	next := make([]uint64, g.N)
	copy(next, offs[:g.N])
	for u := 0; u < g.N; u++ {
		for _, v := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			adj[next[v]] = uint64(u)
			next[v]++
		}
	}
	return &Graph{N: g.N, Offs: offs, Adj: adj}
}

// ---- deterministic generators ----

// Rand generates a symmetric uniform-random graph: m undirected edges drawn
// as independent endpoint pairs (self-loops discarded, multi-edges kept —
// they do not affect BFS or connectivity, and PageRank's reference counts
// them identically). Deterministic in (n, m, seed).
func Rand(n, m int, seed uint64) *Graph {
	if n <= 0 {
		panic("graph: Rand needs n > 0")
	}
	x := rng.NewXoshiro256(seed ^ 0x9e3779b97f4a7c15)
	arcs := make([][2]int, 0, 2*m)
	for i := 0; i < m; i++ {
		u, v := x.Intn(n), x.Intn(n)
		if u == v {
			continue
		}
		arcs = append(arcs, [2]int{u, v}, [2]int{v, u})
	}
	return FromArcs(n, arcs)
}

// Grid generates the rows×cols 4-neighbour mesh (symmetric): the
// high-diameter workload that stresses round-structured algorithms.
func Grid(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("graph: Grid needs positive dimensions")
	}
	n := rows * cols
	arcs := make([][2]int, 0, 4*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				arcs = append(arcs, [2]int{id(r, c), id(r, c+1)}, [2]int{id(r, c+1), id(r, c)})
			}
			if r+1 < rows {
				arcs = append(arcs, [2]int{id(r, c), id(r+1, c)}, [2]int{id(r+1, c), id(r, c)})
			}
		}
	}
	return FromArcs(n, arcs)
}

// RMAT generates a symmetric RMAT-style power-law graph (Chakrabarti et al.
// partition probabilities a=0.57, b=0.19, c=0.19, d=0.05) by recursive
// quadrant descent over the smallest 2^k ≥ n vertex grid; edges landing on a
// vertex ≥ n or on the diagonal are discarded, so the result has at most m
// undirected edges. Deterministic in (n, m, seed).
func RMAT(n, m int, seed uint64) *Graph {
	if n <= 0 {
		panic("graph: RMAT needs n > 0")
	}
	scale := 0
	for 1<<scale < n {
		scale++
	}
	x := rng.NewXoshiro256(seed ^ 0xc2b2ae3d27d4eb4f)
	arcs := make([][2]int, 0, 2*m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for b := 0; b < scale; b++ {
			r := x.Float64()
			switch {
			case r < 0.57: // quadrant a: top-left
			case r < 0.76: // b: top-right
				v |= 1 << b
			case r < 0.95: // c: bottom-left
				u |= 1 << b
			default: // d: bottom-right
				u |= 1 << b
				v |= 1 << b
			}
		}
		if u == v || u >= n || v >= n {
			continue
		}
		arcs = append(arcs, [2]int{u, v}, [2]int{v, u})
	}
	return FromArcs(n, arcs)
}

// Generate builds a graph by kind name ("rand", "grid", "rmat") over n
// vertices and about m undirected edges — the ppmbench flag surface. For
// "grid", the mesh is the most-square factoring of n and m is ignored.
func Generate(kind string, n, m int, seed uint64) (*Graph, error) {
	switch kind {
	case "rand":
		return Rand(n, m, seed), nil
	case "grid":
		rows := 1
		for r := 2; r*r <= n; r++ {
			if n%r == 0 {
				rows = r
			}
		}
		return Grid(rows, n/rows), nil
	case "rmat":
		return RMAT(n, m, seed), nil
	}
	return nil, fmt.Errorf("graph: unknown generator %q (valid: rand, grid, rmat)", kind)
}

// ---- graph sources ----

// Source is the input of a graph kernel, held in the kernel's runtime's
// persistent memory as a CSR ring of one or more version slots. A *Graph is
// one slot: it loads itself at the kernel's Build and stays at epoch 0. A
// *Resident is its epoch-versioned ring, built beforehand, and a run reads
// the slot it is handed.
type Source interface {
	// bind returns the CSR the kernel's capsules read through slotW.
	bind(rt *ppm.Runtime, slotW ppm.Array) vcsr
	// epoch0 is the graph at epoch 0: what sizes the kernel.
	epoch0() *Graph
	// slot is the version slot of the last committed epoch.
	slot() int
	// at is the graph a run at slot s read, for Verify.
	at(s int) *Graph
	// transpose is a source whose arc lists are this one's in-lists.
	transpose() Source
}

func (g *Graph) bind(rt *ppm.Runtime, slotW ppm.Array) vcsr {
	offs := rt.NewArray(g.N + 1)
	offs.Load(g.Offs)
	adj := rt.NewArray(max(1, len(g.Adj)))
	if len(g.Adj) > 0 {
		adj.Load(g.Adj)
	}
	return vcsr{offs: offs, adj: adj, slotW: slotW, n: g.N, cap: adj.Len()}
}

func (g *Graph) epoch0() *Graph    { return g }
func (g *Graph) slot() int         { return 0 }
func (g *Graph) at(int) *Graph     { return g }
func (g *Graph) transpose() Source { return g.Reverse() }

// vcsr is a Source as a kernel's capsules see it: offs holds slots*(n+1)
// words and adj slots*cap words, and the slot a run reads is the value of
// slotW[0], the kernel's own slot word. The run's root capsule stores it from
// its argument, so nothing is staged before the run is owned, and the word is
// persistent memory, so a durable replay of any capsule re-reads the same
// slot.
type vcsr struct {
	offs  ppm.Array // per slot: N+1 arc offsets
	adj   ppm.Array // per slot: arc targets
	slotW ppm.Array
	n     int
	cap   int
}

// bases reads the run's slot and returns the offset/adjacency array bases.
func (v vcsr) bases(c ppm.Ctx) (int, int) {
	s := int(v.slotW.Get(c, 0))
	return s * (v.n + 1), s * v.cap
}

// gatherAdj batches the adjacency lists of the (arbitrary, e.g. frontier)
// vertices vs of the run's slot into two Gather rounds: first the 2-word
// offset pair of every vertex, then every arc list. It returns the
// per-vertex spans (into adj) and the concatenated arc targets, both in
// ephemeral memory; the offset spans are dead once gathered, so their vector
// is reused for the arc spans. The frontier leaves use this.
func (v vcsr) gatherAdj(c ppm.Ctx, vs []uint64) (spans [][2]int, nbrs []uint64) {
	ob, ab := v.bases(c)
	spans = c.ScratchSpans(len(vs))
	for i, u := range vs {
		spans[i] = [2]int{ob + int(u), ob + int(u) + 2}
	}
	ovals := v.offs.Gather(c, spans, nil)
	for i := range vs {
		spans[i] = [2]int{ab + int(ovals[2*i]), ab + int(ovals[2*i+1])}
	}
	return spans, v.adj.Gather(c, spans, nil)
}

// adjRange reads the adjacency of the contiguous vertex range [lo, hi) of
// the run's slot: its hi-lo+1 offsets and, because consecutive vertices'
// lists are consecutive in a CSR, every arc as ONE Slice. Vertex lo+i owns
// the next offs[i+1]-offs[i] words of arcs. The dense scan leaves (cc,
// pagerank) walk arcs with that running cursor and fetch the per-arc words
// with GatherAt(arcs).
func (v vcsr) adjRange(c ppm.Ctx, lo, hi int) (offs, arcs []uint64) {
	ob, ab := v.bases(c)
	offs = v.offs.Slice(c, ob+lo, ob+hi+1)
	return offs, v.adj.Slice(c, ab+int(offs[0]), ab+int(offs[hi-lo]))
}

// binding ties a kernel to its Source: the runtime it is built on, its root
// program, whose first argument is the version slot a run reads, the slot
// word the root capsule stores that argument in, and the slot the last run
// read, whose graph Verify checks against.
type binding struct {
	src   Source
	rt    *ppm.Runtime
	root  ppm.FuncRef
	slotW ppm.Array
	slot  int
}

// bind allocates the slot word on rt and binds the source through it: a
// *Graph loads itself here.
func (b *binding) bind(rt *ppm.Runtime) vcsr {
	b.rt, b.slotW = rt, rt.NewArray(1)
	return b.src.bind(rt, b.slotW)
}

// runAt runs the root at slot, args following the slot, returning the
// runtime's lifecycle errors; a run that was refused records no slot.
func (b *binding) runAt(slot int, args ...any) (bool, error) {
	ok, err := b.rt.TryRun(b.root, append([]any{slot}, args...)...)
	if err == nil {
		b.slot = slot
	}
	return ok, err
}

// run is runAt over the last committed epoch, for ppm.Algorithm.Run:
// lifecycle errors panic, as they do from ppm.Runtime.Run.
func (b *binding) run(args ...any) bool {
	ok, err := b.runAt(b.src.slot(), args...)
	if err != nil {
		panic(err)
	}
	return ok
}

// fillVec returns k words of ephemeral memory, each set to x.
func fillVec(c ppm.Ctx, k int, x uint64) []uint64 {
	out := c.Scratch(k)
	for i := range out {
		out[i] = x
	}
	return out
}

// iotaVec returns [lo, lo+k) as uint64s, in ephemeral memory.
func iotaVec(c ppm.Ctx, lo, k int) []uint64 {
	out := c.Scratch(k)
	for i := range out {
		out[i] = uint64(lo + i)
	}
	return out
}
