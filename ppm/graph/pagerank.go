package graph

import (
	"fmt"
	"math"

	"repro/ppm"
)

// damping is the standard PageRank damping factor.
const damping = 0.85

// prAlgo is pull-style PageRank over the reverse (in-edge) CSR. Each of the
// fixed K iterations is a two-phase WAR-free chain over ping-pong rank
// buffers (ranks stored as float64 bit patterns in the word array):
//
//	contrib — contrib[u] = rank[u] / outdeg[u] (0 for dangling vertices)
//	scan    — rank'[v] = (1-d)/n + d · Σ contrib[u] over in-neighbours u,
//	          summed sequentially in CSR order, so the result is bit-exact
//	          identical on both engines and to the sequential reference.
//
// Because every vertex's sum has a fixed order, parallelism never perturbs
// the floating-point result — Verify can demand bitwise equality, and on top
// of it checks the contraction residual ‖r_K − r_{K−1}‖₁ ≤ 2·d^{K−1}.
type prAlgo struct {
	tag   string
	g     *Graph
	iters int
	res   *Resident // non-nil: pull over the forward versioned CSR

	rt    *ppm.Runtime
	ranks [2]ppm.Array
	slotW ppm.Array
	root  ppm.FuncRef
}

// PageRank builds iters rounds of pull-style PageRank over g. Output is the
// final rank vector as float64 bits; Verify demands bitwise equality with a
// sequential reference in the same summation order plus the geometric
// residual bound.
func PageRank(tag string, g *Graph, iters int) ppm.Algorithm {
	if iters < 1 {
		panic("graph: PageRank needs at least one iteration")
	}
	return &prAlgo{tag: tag, g: g, iters: iters}
}

// PRResident is PageRank bound to a Resident's epoch-versioned CSR ring.
// Because the resident graphs are symmetric (every edge is two arcs), the
// forward CSR doubles as the in-edge structure: the pull iteration reads the
// version slot's own lists, and per-epoch out-degrees come from the slot's
// offsets — no separate reverse CSR to keep in sync under mutation. The
// summation order is the forward-CSR arc order; PageRankResidentRef computes
// the bit-exact sequential reference in the same order.
type PRResident struct{ a *prAlgo }

// PageRankResident builds iters rounds of pull PageRank over an
// epoch-versioned resident (symmetric) graph.
func PageRankResident(tag string, res *Resident, iters int) *PRResident {
	if iters < 1 {
		panic("graph: PageRank needs at least one iteration")
	}
	return &PRResident{a: &prAlgo{tag: tag, g: res.base, iters: iters, res: res}}
}

// Build registers the program on rt (after the Resident's own Build).
func (p *PRResident) Build(rt *ppm.Runtime) { p.a.Build(rt) }

// RunAt runs PageRank against one CSR version slot.
func (p *PRResident) RunAt(slot int) (bool, error) {
	return p.a.rt.TryRun(p.a.root, slot)
}

// Output returns the final rank vector (float64 bits) of the last run.
func (p *PRResident) Output() []uint64 { return p.a.Output() }

func (a *prAlgo) Name() string { return "pagerank/" + a.tag }

func (a *prAlgo) Build(rt *ppm.Runtime) {
	a.rt = rt
	n := a.g.N
	name := "graph/pagerank/" + a.tag
	grain := grainsFor(rt)
	a.slotW = rt.NewArray(1)
	// Resident mode pulls over the forward versioned CSR (symmetric graphs:
	// the in-lists are the out-lists) and reads per-epoch degrees from the
	// slot's offsets; standalone mode keeps the explicit reverse CSR and a
	// host-loaded out-degree array.
	fromCSR := a.res != nil
	var rev vcsr
	var outdeg ppm.Array
	if fromCSR {
		rev = a.res.view(a.slotW)
	} else {
		rev = bindCSR(rt, nil, a.g.Reverse(), a.slotW)
		outdeg = rt.NewArray(n)
		degs := make([]uint64, n)
		for v := 0; v < n; v++ {
			degs[v] = uint64(a.g.Degree(v))
		}
		outdeg.Load(degs)
	}
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
		var d []uint64
		if fromCSR {
			// Per-epoch out-degrees from the slot's own offsets: a host-loaded
			// degree array would go stale under committed mutation batches.
			ob, _ := rev.bases(c)
			ovals := rev.offs.Slice(c, ob+lo, ob+hi+1)
			d = c.Scratch(hi - lo)
			for i := range d {
				d[i] = ovals[i+1] - ovals[i]
			}
		} else {
			d = outdeg.Slice(c, lo, hi)
		}
		vals := c.Scratch(hi - lo)
		for i := range vals {
			if d[i] > 0 {
				vals[i] = math.Float64bits(math.Float64frombits(r[i]) / float64(d[i]))
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
		offs, srcs := rev.adjRange(c, lo, hi)
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
	// ccAlgo: no staging before the run is owned).
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		a.slotW.Set(c, 0, c.Uint(0))
		c.Seq(initP.Call(), driver.Call(0, 0))
	})
}

func (a *prAlgo) Run() bool { return a.rt.Run(a.root, 0) }

// Output returns the final rank vector as float64 bit patterns.
func (a *prAlgo) Output() []uint64 { return a.ranks[a.iters%2].Snapshot() }

func (a *prAlgo) Verify() error {
	want, wantPrev := prReference(a.g, a.iters)
	got := a.Output()
	for v := range want {
		if got[v] != math.Float64bits(want[v]) {
			return fmt.Errorf("%s: rank[%d] = %x, want %x (bitwise)",
				a.Name(), v, got[v], math.Float64bits(want[v]))
		}
	}
	prev := a.ranks[(a.iters+1)%2].Snapshot()
	for v := range wantPrev {
		if prev[v] != math.Float64bits(wantPrev[v]) {
			return fmt.Errorf("%s: rank[%d] after %d iterations = %x, want %x (bitwise)",
				a.Name(), v, a.iters-1, prev[v], math.Float64bits(wantPrev[v]))
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

// PageRankResidentRef computes the resident-mode PageRank reference: iters
// pull rounds over g's FORWARD CSR (the resident graphs are symmetric, so
// the out-lists are the in-lists), summing each vertex's contributions in
// forward arc order. This is bit-for-bit the order PRResident uses, so tests
// and the serve chaos harness can demand exact equality. Returns float64 bit
// patterns.
func PageRankResidentRef(g *Graph, iters int) []uint64 {
	n := g.N
	cur := make([]float64, n)
	for v := range cur {
		cur[v] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	next := make([]float64, n)
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		for u := 0; u < n; u++ {
			contrib[u] = 0
			if d := g.Degree(u); d > 0 {
				contrib[u] = cur[u] / float64(d)
			}
		}
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.Adj[g.Offs[v]:g.Offs[v+1]] {
				sum += contrib[u]
			}
			next[v] = base + damping*sum
		}
		cur, next = next, cur
	}
	out := make([]uint64, n)
	for v := range out {
		out[v] = math.Float64bits(cur[v])
	}
	return out
}

// prReference runs the identical iteration sequentially (same reverse-CSR
// summation order, so float results match the parallel run bit for bit).
// Returns the rank vectors after iters and iters-1 rounds.
func prReference(g *Graph, iters int) (cur, prev []float64) {
	rev := g.Reverse()
	n := g.N
	cur = make([]float64, n)
	for v := range cur {
		cur[v] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	next := make([]float64, n)
	base := (1 - damping) / float64(n)
	prev = make([]float64, n)
	for it := 0; it < iters; it++ {
		copy(prev, cur)
		for u := 0; u < n; u++ {
			contrib[u] = 0
			if d := g.Degree(u); d > 0 {
				contrib[u] = cur[u] / float64(d)
			}
		}
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range rev.Adj[rev.Offs[v]:rev.Offs[v+1]] {
				sum += contrib[u]
			}
			next[v] = base + damping*sum
		}
		cur, next = next, cur
	}
	return cur, prev
}
