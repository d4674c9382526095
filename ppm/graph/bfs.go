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

// Capsule grain sizes, in vertices (frontier slots for the claim leaves).
// The model requires f < 1/(2C) for the largest capsule work C, so leaves
// whose cost is per-arc (claims, the scattered label GatherAt — one block
// transfer per arc on the model) stay small enough that C remains bounded by
// a few hundred block transfers at typical degrees — otherwise a soft-fault
// sweep would replay them forever. Dense bulk leaves move whole blocks and
// can afford more vertices per capsule. The native engine would take larger
// ones (a leaf costs ~5 ns per arc against ~0.2 µs to spawn and join it).
const (
	frontierGrain = 8   // claim leaves: two CAMs per arc dominate
	scanGrain     = 16  // per-arc gather leaves (cc scan, pagerank scan)
	denseGrain    = 64  // bulk per-vertex leaves (init, flag, scatter, contrib)
	psumLeaf      = 512 // prefix-tree base case: contiguous block reads
)

// bfsAlgo is frontier-based breadth-first search. Each round is a WAR-free
// four-phase chain over ping-pong frontier buffers:
//
//	claim   — every frontier vertex gathers its arc list (one batched
//	          Gather) and CAMs level[v] INF→d and parent[v] NIL→u for each
//	          neighbour v; racing claimants and fault replays are both
//	          resolved by the CAM (exactly one level wins, and any winning
//	          parent is a valid level-(d-1) neighbour).
//	flag    — flags[v] = 1 iff level[v] == d (the vertices claimed this
//	          round).
//	scan    — inclusive prefix sum over flags (ppm.RegisterPrefixSum).
//	scatter — compact the flagged vertices into the next frontier buffer
//	          and publish its size.
//
// The driver capsule reads the published size and either chains the next
// round with Seq or finishes. Depth is O(diameter) rounds; work per round is
// O(n/B + frontier arcs) plus the scan.
type bfsAlgo struct {
	tag string
	g   *Graph
	src int

	rt     *ppm.Runtime
	level  ppm.Array
	parent ppm.Array
	root   ppm.FuncRef
}

// BFS builds a breadth-first search over g from src. Output is the level
// (hop distance) of every vertex, INF (all-ones) for unreachable ones;
// Verify checks the levels against a sequential BFS and the parent array
// for tree validity (every parent is a level-(d-1) neighbour).
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
	cs := loadCSR(rt, a.g)
	a.level = rt.NewArray(n)
	a.parent = rt.NewArray(n)
	flags := rt.NewArray(n)
	psum := rt.NewArray(n)
	front := [2]ppm.Array{rt.NewArray(n), rt.NewArray(n)}
	size := rt.NewArray(1)

	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		vals := fillVec(c, hi-lo, inf)
		a.level.SetRange(c, lo, vals)
		a.parent.SetRange(c, lo, vals)
		c.Done()
	})
	initP := rt.Register(name+"/initP", func(c ppm.Ctx) {
		c.ParallelFor(initLeaf, 0, n, denseGrain)
	})
	seed := rt.Register(name+"/seed", func(c ppm.Ctx) {
		front[0].Set(c, 0, uint64(a.src))
		a.level.Set(c, a.src, 0)
		a.parent.Set(c, a.src, uint64(a.src))
		size.Set(c, 0, 1)
		c.Done()
	})

	// claimLeaf covers frontier slots [lo, hi): args [lo, hi, d, parity].
	claimLeaf := rt.Register(name+"/claim", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		d, parity := c.Uint(2), c.Int(3)
		vs := front[parity].Slice(c, lo, hi)
		spans, nbrs := cs.gatherAdj(c, vs)
		i := 0
		for idx, u := range vs {
			for j := spans[idx][0]; j < spans[idx][1]; j++ {
				v := int(nbrs[i])
				i++
				c.CAM(a.level.At(v), inf, d)
				c.CAM(a.parent.At(v), nilParent, u)
			}
		}
		c.Done()
	})
	claimP := rt.Register(name+"/claimP", func(c ppm.Ctx) {
		cnt := int(size.Get(c, 0))
		c.ParallelFor(claimLeaf, 0, cnt, frontierGrain, c.Uint(0), c.Uint(1))
	})

	flagLeaf := rt.Register(name+"/flag", func(c ppm.Ctx) {
		lo, hi, d := c.Int(0), c.Int(1), c.Uint(2)
		lv := a.level.Slice(c, lo, hi)
		vals := c.Scratch(hi - lo)
		for i, x := range lv {
			if x == d {
				vals[i] = 1
			}
		}
		flags.SetRange(c, lo, vals)
		c.Done()
	})
	flagP := rt.Register(name+"/flagP", func(c ppm.Ctx) {
		c.ParallelFor(flagLeaf, 0, n, denseGrain, c.Uint(0))
	})

	psumRoot := ppm.RegisterPrefixSum(rt, name+"/psum", n, psumLeaf, flags, psum)

	scatterLeaf := rt.Register(name+"/scatter", func(c ppm.Ctx) {
		lo, hi, parity := c.Int(0), c.Int(1), c.Int(2)
		fl := flags.Slice(c, lo, hi)
		ps := psum.Slice(c, lo, hi)
		for i, f := range fl {
			if f == 1 {
				front[1-parity].Set(c, int(ps[i])-1, uint64(lo+i))
			}
		}
		c.Done()
	})
	scatterP := rt.Register(name+"/scatterP", func(c ppm.Ctx) {
		c.ParallelFor(scatterLeaf, 0, n, denseGrain, c.Uint(0))
	})
	publish := rt.Register(name+"/publish", func(c ppm.Ctx) {
		size.Set(c, 0, psum.Get(c, n-1))
		c.Done()
	})

	var driver ppm.FuncRef
	driver = rt.Register(name+"/round", func(c ppm.Ctx) {
		d, parity := c.Uint(0), c.Int(1)
		if size.Get(c, 0) == 0 {
			c.Done()
			return
		}
		c.Seq(
			claimP.Call(d, parity),
			flagP.Call(d),
			psumRoot.Call(),
			scatterP.Call(parity),
			publish.Call(),
			driver.Call(d+1, 1-parity),
		)
	})
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		c.Seq(initP.Call(), seed.Call(), driver.Call(1, 0))
	})
}

func (a *bfsAlgo) Run() bool { return a.rt.Run(a.root) }

// Output returns the level of every vertex (INF for unreachable).
func (a *bfsAlgo) Output() []uint64 { return a.level.Snapshot() }

func (a *bfsAlgo) Verify() error {
	want := bfsReference(a.g, a.src)
	got := a.Output()
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("%s: level[%d] = %d, want %d", a.Name(), v, got[v], want[v])
		}
	}
	// Parent validity: the tree rooted at src must step down exactly one
	// level along an existing arc.
	par := a.parent.Snapshot()
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
