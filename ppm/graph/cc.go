package graph

import (
	"fmt"

	"repro/ppm"
)

// ccAlgo is label-propagation connected components: every vertex starts
// labelled with its own id, and each round every vertex takes the minimum
// label over itself and its neighbours — reading one label buffer, writing
// the other (ping-pong), so every capsule is WAR-free and replay-safe. A
// leaf that lowered any label CAMs a shared changed flag from 0 to 1
// (idempotent); the round driver resets the flag, runs the scan, and a check
// capsule reads the flag to decide between another round and termination.
// Labels converge to the minimum vertex id of each component, which is
// exactly what the sequential union-find reference computes.
type ccAlgo struct {
	tag string
	g   *Graph
	res *Resident // non-nil: read the epoch-versioned CSR ring

	rt     *ppm.Runtime
	labels [2]ppm.Array
	slotW  ppm.Array
	root   ppm.FuncRef
}

// Components builds label-propagation connected components over g (which
// should be symmetric, as the generators produce). Output is the minimum
// vertex id of every vertex's component; Verify checks it against a
// sequential union-find.
func Components(tag string, g *Graph) ppm.Algorithm {
	return &ccAlgo{tag: tag, g: g}
}

// CCResident is connected components bound to a Resident's epoch-versioned
// CSR ring; RunAt binds each run to one version slot.
type CCResident struct{ a *ccAlgo }

// ComponentsResident builds label-propagation connected components over an
// epoch-versioned resident graph.
func ComponentsResident(tag string, res *Resident) *CCResident {
	return &CCResident{a: &ccAlgo{tag: tag, g: res.base, res: res}}
}

// Build registers the program on rt (after the Resident's own Build).
func (c *CCResident) Build(rt *ppm.Runtime) { c.a.Build(rt) }

// RunAt runs connected components against one CSR version slot.
func (c *CCResident) RunAt(slot int) (bool, error) { return c.a.runAt(slot) }

// Output returns the component label (minimum member id) of every vertex
// from the last run.
func (c *CCResident) Output() []uint64 { return c.a.Output() }

func (a *ccAlgo) Name() string { return "cc/" + a.tag }

func (a *ccAlgo) Build(rt *ppm.Runtime) {
	a.rt = rt
	n := a.g.N
	name := "graph/cc/" + a.tag
	a.slotW = rt.NewArray(1)
	cs := bindCSR(rt, a.res, a.g, a.slotW)
	a.labels = [2]ppm.Array{rt.NewArray(n), rt.NewArray(n)}
	changed := rt.NewArray(1)

	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		a.labels[0].SetRange(c, lo, iotaVec(c, lo, hi-lo))
		c.Done()
	})
	initP := rt.Register(name+"/initP", func(c ppm.Ctx) {
		c.ParallelFor(initLeaf, 0, n, denseGrain)
	})
	reset := rt.Register(name+"/reset", func(c ppm.Ctx) {
		changed.Set(c, 0, 0)
		c.Done()
	})

	// scanLeaf covers vertices [lo, hi): args [lo, hi, parity].
	scanLeaf := rt.Register(name+"/scan", func(c ppm.Ctx) {
		lo, hi, parity := c.Int(0), c.Int(1), c.Int(2)
		cur, next := a.labels[parity], a.labels[1-parity]
		mine := cur.Slice(c, lo, hi)
		offs, arcs := cs.adjRange(c, lo, hi)
		// One more batched round: the label of every arc target.
		nlab := cur.GatherAt(c, arcs, nil)
		vals := c.Scratch(hi - lo)
		lowered := false
		i := 0
		for idx, m := range mine {
			end := i + int(offs[idx+1]-offs[idx])
			for _, l := range nlab[i:end] {
				m = min(m, l)
			}
			i = end
			vals[idx] = m
			if m != mine[idx] {
				lowered = true
			}
		}
		next.SetRange(c, lo, vals)
		if lowered {
			c.CAM(changed.At(0), 0, 1)
		}
		c.Done()
	})
	scanP := rt.Register(name+"/scanP", func(c ppm.Ctx) {
		c.ParallelFor(scanLeaf, 0, n, scanGrain, c.Uint(0))
	})

	var driver ppm.FuncRef
	check := rt.Register(name+"/check", func(c ppm.Ctx) {
		iter, parity := c.Int(0), c.Int(1)
		if changed.Get(c, 0) == 0 || iter > n {
			c.Done()
			return
		}
		c.Then(driver.Call(iter+1, 1-parity))
	})
	driver = rt.Register(name+"/round", func(c ppm.Ctx) {
		iter, parity := c.Int(0), c.Int(1)
		c.Seq(reset.Call(), scanP.Call(parity), check.Call(iter, parity))
	})
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		c.Seq(initP.Call(), driver.Call(0, 0))
	})
}

func (a *ccAlgo) Run() bool { return a.rt.Run(a.root) }

// runAt stages the CSR version slot and runs through TryRun (serving-layer
// lifecycle errors propagate instead of panicking).
func (a *ccAlgo) runAt(slot int) (bool, error) {
	if a.rt.Closed() {
		return false, ppm.ErrRuntimeClosed
	}
	a.slotW.Load([]uint64{uint64(slot)})
	return a.rt.TryRun(a.root)
}

// Output returns the component label (minimum member id) of every vertex.
// At convergence the two ping-pong buffers are identical, so either serves.
func (a *ccAlgo) Output() []uint64 { return a.labels[0].Snapshot() }

func (a *ccAlgo) Verify() error {
	want := ccReference(a.g)
	got := a.Output()
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("%s: label[%d] = %d, want %d", a.Name(), v, got[v], want[v])
		}
	}
	return nil
}

// ccReference computes the minimum vertex id per component with sequential
// union-find (path halving + union by smaller root, so roots are minima).
func ccReference(g *Graph) []uint64 {
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			ru, rv := find(u), find(int(v))
			if ru == rv {
				continue
			}
			// Keep the smaller id as root, so find() yields component minima.
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
	}
	out := make([]uint64, g.N)
	for v := range out {
		out[v] = uint64(find(v))
	}
	return out
}
