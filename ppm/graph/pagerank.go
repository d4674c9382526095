package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/ppm"
)

// damping is the standard PageRank damping factor.
const damping = 0.85

// PR is pull-style PageRank over its source's in-lists. Each of the fixed K
// iterations is a two-phase WAR-free chain over ping-pong rank buffers (ranks
// stored as float64 bit patterns in the word array):
//
//	contrib — contrib[u] = rank[u] / deg[u] (0 for dangling vertices), deg[u]
//	          read off the in-lists' offsets of the run's slot
//	scan    — rank'[v] = (1-d)/n + d · Σ contrib[u] over in-neighbours u,
//	          summed sequentially in in-list order, so the result is bit-exact
//	          identical on both engines and to the sequential reference.
//
// A *Graph's in-lists are g.Reverse(), loaded into one slot. A Resident is
// read as its own in-lists: its graphs are symmetric, as the generators make
// them and as mutation batches, which insert and delete both arcs of an edge,
// keep them. Either way the in-degrees stand in for the out-degrees, which
// construction checks they equal.
//
// Because every vertex's sum has a fixed order, parallelism never perturbs
// the floating-point result — Verify can demand bitwise equality, and on top
// of it checks the contraction residual ‖r_K − r_{K−1}‖₁ ≤ 2·d^{K−1}.
type PR struct {
	binding // over the in-lists of the graph ranked
	tag     string
	iters   int
	ranks   [2]ppm.Array
}

// PageRank builds iters rounds of pull-style PageRank over g. Output is the
// final rank vector as float64 bits; Verify demands bitwise equality with a
// sequential reference in the same summation order plus the geometric
// residual bound. It panics unless every vertex's in-degree equals its
// out-degree (g.Reverse().Offs == g.Offs), as every symmetric graph's does.
func PageRank(tag string, g Source, iters int) *PR {
	if iters < 1 {
		panic("graph: PageRank needs at least one iteration")
	}
	in := g.transpose()
	if !slices.Equal(in.epoch0().Offs, g.epoch0().Offs) {
		panic("graph: PageRank needs every in-degree equal to the out-degree (Reverse().Offs == Offs)")
	}
	return &PR{binding: binding{src: in}, tag: tag, iters: iters}
}

func (a *PR) Name() string { return "pagerank/" + a.tag }

// Build loads a *Graph source's in-lists and registers the program on rt.
func (a *PR) Build(rt *ppm.Runtime) {
	n := a.src.epoch0().N
	name := "graph/" + a.Name()
	grain := grainsFor(rt)
	in := a.bind(rt)
	a.ranks = [2]ppm.Array{rt.NewArray(n), rt.NewArray(n)}
	contrib := rt.NewArray(n)

	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		a.ranks[0].SetRange(c, lo, fillVec(c, hi-lo, math.Float64bits(1/float64(n))))
		c.Done()
	})
	initP := rt.Register(name+"/initP", func(c ppm.Ctx) {
		c.ParallelFor(initLeaf, 0, n, grain.dense)
	})

	contribLeaf := rt.Register(name+"/contrib", func(c ppm.Ctx) {
		lo, hi, parity := c.Int(0), c.Int(1), c.Int(2)
		r := a.ranks[parity].Slice(c, lo, hi)
		ob, _ := in.bases(c)
		offs := in.offs.Slice(c, ob+lo, ob+hi+1)
		vals := c.Scratch(hi - lo)
		for i := range vals {
			if d := offs[i+1] - offs[i]; d > 0 {
				vals[i] = math.Float64bits(math.Float64frombits(r[i]) / float64(d))
			}
		}
		contrib.SetRange(c, lo, vals)
		c.Done()
	})
	contribP := rt.Register(name+"/contribP", func(c ppm.Ctx) {
		c.ParallelFor(contribLeaf, 0, n, grain.dense, c.Uint(0))
	})

	scanLeaf := rt.Register(name+"/scan", func(c ppm.Ctx) {
		lo, hi, parity := c.Int(0), c.Int(1), c.Int(2)
		offs, srcs := in.adjRange(c, lo, hi)
		// One more batched round: the contribution of every in-neighbour.
		cvals := contrib.GatherAt(c, srcs, nil)
		base := (1 - damping) / float64(n)
		vals := c.Scratch(hi - lo)
		i := 0
		for idx := range vals {
			sum := 0.0
			end := i + int(offs[idx+1]-offs[idx])
			for _, cv := range cvals[i:end] {
				sum += math.Float64frombits(cv)
			}
			i = end
			vals[idx] = math.Float64bits(base + damping*sum)
		}
		a.ranks[1-parity].SetRange(c, lo, vals)
		c.Done()
	})
	scanP := rt.Register(name+"/scanP", func(c ppm.Ctx) {
		c.ParallelFor(scanLeaf, 0, n, grain.scan, c.Uint(0))
	})

	var driver ppm.FuncRef
	driver = rt.Register(name+"/round", func(c ppm.Ctx) {
		iter, parity := c.Int(0), c.Int(1)
		if iter == a.iters {
			c.Done()
			return
		}
		c.Seq(contribP.Call(parity), scanP.Call(parity), driver.Call(iter+1, 1-parity))
	})
	// root stores its argument, the CSR version slot, for the leaves (see
	// CC: no staging before the run is owned).
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		a.slotW.Set(c, 0, c.Uint(0))
		c.Seq(initP.Call(), driver.Call(0, 0))
	})
}

// Run runs over the last committed epoch.
func (a *PR) Run() bool { return a.run() }

// RunAt runs against one CSR version slot, returning the runtime's lifecycle
// errors instead of panicking.
func (a *PR) RunAt(slot int) (bool, error) { return a.runAt(slot) }

// Output returns the final rank vector as float64 bit patterns.
func (a *PR) Output() []uint64 { return a.ranks[a.iters%2].Snapshot() }

// Verify checks the ranks against the graph of the slot the last run read.
func (a *PR) Verify() error {
	want, wantPrev := pullRanks(a.src.at(a.slot), a.iters)
	got, prev := a.Output(), a.ranks[(a.iters+1)%2].Snapshot()
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("%s: rank[%d] = %x, want %x (bitwise)", a.Name(), v, got[v], want[v])
		}
		if prev[v] != wantPrev[v] {
			return fmt.Errorf("%s: rank[%d] after %d iterations = %x, want %x (bitwise)",
				a.Name(), v, a.iters-1, prev[v], wantPrev[v])
		}
	}
	// Contraction bound: the iteration map is a d-contraction in L1 (the
	// column-substochastic link matrix scales differences by at most d), so
	// after K iterations ‖r_K − r_{K−1}‖₁ ≤ d^{K−1}·‖r_1 − r_0‖₁ ≤ 2·d^{K−1}.
	residual := 0.0
	for v := range got {
		residual += math.Abs(math.Float64frombits(got[v]) - math.Float64frombits(prev[v]))
	}
	if bound := 2 * math.Pow(damping, float64(a.iters-1)); residual > bound {
		return fmt.Errorf("%s: residual %g exceeds contraction bound %g after %d iterations",
			a.Name(), residual, bound, a.iters)
	}
	return nil
}

// PageRankResidentRef is the PageRank of a Resident holding g: iters pull
// rounds over g's own lists, which a symmetric graph's in-lists are, summed
// in their arc order. That is bit for bit the order a PR over the Resident
// uses, so tests and the serve chaos harness can demand exact equality.
// Returns float64 bit patterns.
func PageRankResidentRef(g *Graph, iters int) []uint64 {
	ranks, _ := pullRanks(g, iters)
	return ranks
}

// pullRanks runs iters pull rounds sequentially over the in-lists in, in
// their arc order, with in's degrees as the out-degrees, as PR does, so the
// results match a PR run bit for bit. Returns the rank vectors after iters
// and iters-1 rounds, as float64 bit patterns.
func pullRanks(in *Graph, iters int) (ranks, prevRanks []uint64) {
	n := in.N
	cur, next, prev := make([]float64, n), make([]float64, n), make([]float64, n)
	for v := range cur {
		cur[v] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		copy(prev, cur)
		for u := 0; u < n; u++ {
			contrib[u] = 0
			if d := in.Degree(u); d > 0 {
				contrib[u] = cur[u] / float64(d)
			}
		}
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range in.Adj[in.Offs[v]:in.Offs[v+1]] {
				sum += contrib[u]
			}
			next[v] = base + damping*sum
		}
		cur, next = next, cur
	}
	ranks, prevRanks = make([]uint64, n), make([]uint64, n)
	for v := range ranks {
		ranks[v], prevRanks[v] = math.Float64bits(cur[v]), math.Float64bits(prev[v])
	}
	return ranks, prevRanks
}
