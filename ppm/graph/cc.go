package graph

import (
	"fmt"

	"repro/ppm"
)

// ccAlgo is connected components by shortcutting label propagation. Every
// vertex starts labelled with its own id; a label is always the id of a
// vertex of the same component, so it can be followed like a parent pointer,
// and each round a vertex takes the minimum, over itself and its
// neighbours, of the label's label:
//
//	next[v] = min(cur[cur[v]], min over arcs v→u of cur[cur[u]])
//
// The leaf only reads cur (a Slice, the adjacency, and GatherAt calls on cur)
// and only writes next (ping-pong), so every capsule is WAR-free and
// replay-safe exactly as plain label propagation is (Theorem 3.1).
//
// Invariant: next[v] ≤ cur[cur[v]] ≤ cur[v] ≤ v. Labels never rise, and
// since cur[cur[u]] ≤ cur[u], a round lowers every label at least as far as
// a label-propagation round from the same labels would: on no input does
// the kernel take more rounds than label propagation.
//
// Fixpoint: when a round changes nothing, cur[v] ≤ cur[cur[u]] ≤ cur[u] on
// every arc v→u and, the graph being symmetric, the reverse, so labels are
// equal along arcs and constant on a component. That constant is the id of a
// member, hence ≥ the component's minimum, and ≤ it because the minimum
// vertex's own label is ≤ its id. So the output is still the minimum vertex
// id of each component, which is exactly what the sequential union-find
// reference computes, on either engine, bit for bit.
//
// Rounds: where ids are local — meshes, paths, anything numbered in
// traversal order — labels chain through lower neighbours and the reach
// doubles every round: O(log n) rounds on a path, 9 on the 128×128 mesh
// against label propagation's 255. The bound is NOT label-independent. The
// kernel only pulls: a vertex adopts labels, it never hooks the root of its
// label tree under another tree, so two trees merge only along the arcs
// between them and, with adversarially permuted ids, rounds stay bound by
// the diameter (over five random permutations a 128×128 mesh takes 77–89
// rounds against label propagation's 148–209, and a 4000-vertex path
// 833–1832 against 2044–3968: still a constant fraction of n). Hooking
// roots — an arbitrary-winner CAM against the round's known old label, the
// BFS claim idiom — gives the O(log n) bound of Andoni et al. on every
// labelling, at the price of schedule-dependent capsule counts.
//
// A leaf that lowered any label CAMs the round's changed flag from 0 to 1
// (idempotent). There are two flags, one per round parity, in separate
// blocks: the check capsule reads this round's flag to decide between
// another round and termination, and clears the other one — a word it never
// reads — for the next round, so a round is two root-chain phases, scan and
// check, and needs no phase of its own to reset a flag.
type ccAlgo struct {
	tag string
	g   *Graph
	res *Resident // non-nil: read the epoch-versioned CSR ring

	rt     *ppm.Runtime
	labels [2]ppm.Array
	slotW  ppm.Array
	root   ppm.FuncRef
}

// Components builds connected components (shortcutting label propagation,
// see ccAlgo) over g, which should be symmetric, as the generators produce.
// Output is the minimum vertex id of every vertex's component; Verify checks
// it against a sequential union-find.
func Components(tag string, g *Graph) ppm.Algorithm {
	return &ccAlgo{tag: tag, g: g}
}

// CCResident is connected components bound to a Resident's epoch-versioned
// CSR ring; RunAt binds each run to one version slot.
type CCResident struct{ a *ccAlgo }

// ComponentsResident builds connected components over an epoch-versioned
// resident graph.
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
	grain := grainsFor(rt)
	a.slotW = rt.NewArray(1)
	cs := bindCSR(rt, a.res, a.g, a.slotW)
	a.labels = [2]ppm.Array{rt.NewArray(n), rt.NewArray(n)}
	// changed[p] is the flag of the rounds of parity p. One block each: the
	// check capsule reads one and clears the other, and write-after-read
	// conflicts are block-granular.
	changed := rt.NewBlockArray(2)

	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		a.labels[0].SetRange(c, lo, iotaVec(c, lo, hi-lo))
		c.Done()
	})
	initP := rt.Register(name+"/initP", func(c ppm.Ctx) {
		changed.Set(c, 0, 0) // a resident re-run finds the last run's flags
		c.ParallelFor(initLeaf, 0, n, grain.dense)
	})

	// scanLeaf covers vertices [lo, hi): args [lo, hi, parity].
	scanLeaf := rt.Register(name+"/scan", func(c ppm.Ctx) {
		lo, hi, parity := c.Int(0), c.Int(1), c.Int(2)
		cur, next := a.labels[parity], a.labels[1-parity]
		mine := cur.Slice(c, lo, hi)
		offs, arcs := cs.adjRange(c, lo, hi)
		// Two batched rounds per operand: a label, then that label's label.
		// vals starts as cur[cur[v]] and becomes the leaf's output.
		vals := cur.GatherAt(c, mine, nil)
		nlab := cur.GatherAt(c, cur.GatherAt(c, arcs, nil), nil)
		lowered := false
		i := 0
		for idx, m := range vals {
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
			c.CAM(changed.At(parity), 0, 1)
		}
		c.Done()
	})
	scanP := rt.Register(name+"/scanP", func(c ppm.Ctx) {
		c.ParallelFor(scanLeaf, 0, n, grain.scan, c.Uint(0))
	})

	var driver ppm.FuncRef
	check := rt.Register(name+"/check", func(c ppm.Ctx) {
		iter, parity := c.Int(0), c.Int(1)
		if changed.Get(c, parity) == 0 || iter > n {
			c.Done()
			return
		}
		changed.Set(c, 1-parity, 0) // the next round's flag; never read here
		c.Then(driver.Call(iter+1, 1-parity))
	})
	driver = rt.Register(name+"/round", func(c ppm.Ctx) {
		iter, parity := c.Int(0), c.Int(1)
		c.Seq(scanP.Call(parity), check.Call(iter, parity))
	})
	// root takes the CSR version slot as its argument and stores it for the
	// leaves: nothing is staged before the run is owned, so a run refused
	// with ppm.ErrRuntimeBusy cannot move the slot under the one in flight.
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		a.slotW.Set(c, 0, c.Uint(0))
		c.Seq(initP.Call(), driver.Call(0, 0))
	})
}

func (a *ccAlgo) Run() bool { return a.rt.Run(a.root, 0) }

// runAt runs against one CSR version slot through TryRun (serving-layer
// lifecycle errors propagate instead of panicking).
func (a *ccAlgo) runAt(slot int) (bool, error) {
	return a.rt.TryRun(a.root, slot)
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
