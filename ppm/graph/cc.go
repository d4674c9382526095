package graph

import (
	"fmt"

	"repro/ppm"
)

// CC is connected components by shortcutting label propagation. Every
// vertex starts labelled with its own id; a label is always the id of a
// vertex of the same component, so it can be followed like a parent pointer.
// Each round a vertex takes label propagation's minimum over itself and its
// neighbours, then follows it, and its own label, one step:
//
//	m = min(cur[v], min over arcs v→u of cur[u])
//	next[v] = min(cur[cur[v]], cur[m])
//
// The leaf folds each arc's label into its vertex's m once, with one FoldMin
// over the leaf's arcs whose accumulators start at the vertices' own labels,
// and then gathers, per vertex, the two labels' labels. It only reads cur (a
// Slice, the adjacency, a FoldAt and a GatherAt on cur) and only writes next
// (ping-pong), so every capsule is
// WAR-free and replay-safe exactly as plain label propagation is (Theorem
// 3.1). The init leaf writes the first round straight from the arcs,
// min(v, min over arcs v→u of u): with cur the identity the formula reduces
// to that, so a round that would only read back ids is folded into the init.
//
// Labels never rise: next[v] ≤ cur[m] ≤ m ≤ cur[v], since every label is at
// most its vertex's id (it starts there and never rises). A vertex labelled 0
// holds the least id, so its label is final: the leaf skips its arcs and
// writes 0, which is what the formula gives (m = 0, cur[0] = 0), and a leaf
// whose labels are all 0 just writes zeros.
//
// No labelling takes more rounds than label propagation: next[v] ≤ m, which
// is label propagation's round applied to cur, and that round is monotone,
// so after k rounds every label is at most the one k rounds of label
// propagation give; the init is its first round exactly.
//
// Fixpoint: when a round changes nothing, cur[v] = next[v] ≤ m ≤ cur[u] on
// every arc v→u and, the graph being symmetric, the reverse, so labels are
// equal along arcs and constant on a component. That constant is the id of a
// member, hence ≥ the component's minimum, and ≤ it because the minimum
// vertex's own label is ≤ its id. So the output is the minimum vertex id of
// each component, which is exactly what the sequential union-find reference
// computes, on either engine, bit for bit.
//
// Rounds: where ids are local — meshes, paths, anything numbered in
// traversal order — labels chain through lower neighbours and the reach
// doubles every round: O(log n) rounds on a path, 8 scans after the init on
// the 128×128 mesh against label propagation's 255. The bound is NOT
// label-independent. The kernel only pulls: a vertex adopts labels, it never
// hooks the root of its label tree under another tree, so two trees merge
// only along the arcs between them and, with adversarially permuted ids,
// rounds stay bound by the diameter (over five random permutations a 128×128
// mesh takes 78–85 scans against label propagation's 148–209 rounds, and a
// 4000-vertex path 837–1835 against 2044–3968: still a constant fraction of
// n). Hooking roots — an arbitrary-winner CAM against the round's known old
// label, the BFS claim idiom — gives the O(log n) bound of Andoni et al. on
// every labelling, at the price of schedule-dependent capsule counts.
//
// A leaf that lowered any label CAMs the round's changed flag from 0 to 1
// (idempotent). There are two flags, one per round parity, in separate
// blocks: the check capsule reads this round's flag to decide between
// another round and termination, and clears the other one — a word it never
// reads — for the next round, so a round is two root-chain phases, scan and
// check, and needs no phase of its own to reset a flag.
type CC struct {
	binding
	tag    string
	labels [2]ppm.Array
}

// Components builds connected components (shortcutting label propagation,
// see CC) over g, which should be symmetric, as the generators and mutation
// batches keep it. Output is the minimum vertex id of every vertex's
// component; Verify checks it against a sequential union-find.
func Components(tag string, g Source) *CC {
	return &CC{binding: binding{src: g}, tag: tag}
}

func (a *CC) Name() string { return "cc/" + a.tag }

// Build loads a *Graph source and registers the program on rt.
func (a *CC) Build(rt *ppm.Runtime) {
	n, _ := a.src.size()
	name := "graph/" + a.Name()
	cs := a.bind(rt)
	a.labels = [2]ppm.Array{rt.NewArray(n), rt.NewArray(n)}
	// changed[p] is the flag of the rounds of parity p. One block each: the
	// check capsule reads one and clears the other, and write-after-read
	// conflicts are block-granular.
	changed := rt.NewBlockArray(2)

	// initLeaf writes the first round straight from the arcs (see CC) for
	// the vertices of leaf c.Int(0).
	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := cs.leaves.at(c, c.Int(0))
		offs, arcs := cs.adjRange(c, lo, hi)
		vals := c.Scratch(hi - lo)
		i := 0
		for k := range vals {
			m := uint64(lo + k)
			end := i + int(offs[k+1]-offs[k])
			for _, u := range arcs[i:end] {
				m = min(m, u)
			}
			i = end
			vals[k] = m
		}
		a.labels[0].SetRange(c, lo, vals)
		c.Done()
	})
	initP := rt.Register(name+"/initP", func(c ppm.Ctx) {
		changed.Set(c, 0, 0) // a re-run finds the last run's flags
		c.ParallelFor(initLeaf, 0, cs.leaves.count(), 1)
	})

	// scanLeaf covers the vertices of one leaf: args [leaf, leaf+1, parity].
	scanLeaf := rt.Register(name+"/scan", func(c ppm.Ctx) {
		lo, hi := cs.leaves.at(c, c.Int(0))
		parity := c.Int(2)
		cur, next := a.labels[parity], a.labels[1-parity]
		mine := cur.Slice(c, lo, hi)
		live := 0 // vertices whose label is not yet 0
		for _, l := range mine {
			if l != 0 {
				live++
			}
		}
		if live == 0 {
			next.SetRange(c, lo, mine) // every label is 0, hence final
			c.Done()
			return
		}
		// One fold of the live vertices' arc labels, each starting from the
		// vertex's own, gives each its m; a gather then reads cur[cur[v]]
		// and cur[m].
		offs, arcs := cs.adjLive(c, lo, hi, mine)
		lens, ms, idx := c.Scratch(live), c.Scratch(live), c.Scratch(2*live)
		j := 0
		for k, l := range mine {
			if l != 0 {
				lens[j], ms[j], idx[2*j] = offs[k+1]-offs[k], l, l
				j++
			}
		}
		cur.FoldAt(c, ppm.FoldMin, arcs, lens, ms)
		for j, m := range ms {
			idx[2*j+1] = m
		}
		got := cur.GatherAt(c, idx, nil)
		vals := c.Scratch(hi - lo) // zeroed: a label-0 vertex stays 0
		lowered := false
		j = 0
		for k, l := range mine {
			if l == 0 {
				continue
			}
			vals[k] = min(got[j], got[j+1])
			j += 2
			if vals[k] != l {
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
		c.ParallelFor(scanLeaf, 0, cs.leaves.count(), 1, c.Uint(0))
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

// Run runs over the last committed epoch.
func (a *CC) Run() bool { return a.run() }

// RunAt runs against one CSR version slot, returning the runtime's lifecycle
// errors instead of panicking.
func (a *CC) RunAt(slot int) (bool, error) { return a.runAt(slot) }

// Output returns the component label (minimum member id) of every vertex.
// At convergence the two ping-pong buffers are identical, so either serves.
func (a *CC) Output() []uint64 { return a.labels[0].Snapshot() }

// Verify checks the labels against the graph of the slot the last run read.
func (a *CC) Verify() error {
	want := ccReference(a.src.at(a.slot))
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
