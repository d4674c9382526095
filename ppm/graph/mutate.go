package graph

import (
	"fmt"
	"slices"
	"sync"

	"repro/ppm"
)

// This file is the crash-safe graph-mutation layer: a Resident holds a graph
// in a runtime's persistent memory as an epoch-versioned CSR ring, and a
// MutationBatch (edge insert/delete sets) is applied as a root-chain phase
// program whose commit is a persistence point. The committed epoch lives in a
// durable pmem word written by the final chain step, so on a durable runtime
// a mid-batch crash recovers (ppm.Recover + Resume) to exactly the last
// committed epoch: either the interrupted batch replays its un-committed tail
// to completion, or — if the batch never began — the previous epoch stands.
//
// Versioning gives snapshot isolation for free: the ring keeps the last
// `slots` epochs' CSR images intact, a batch always writes the slot of the
// *next* epoch (never the one readers are on), and a kernel over a Resident
// reads the slot its run names, which the run's root capsule stores from its
// argument — so a query pinned to epoch E keeps reading epoch-E arcs until E
// falls out of the ring, no matter how many batches commit meanwhile.

// MutationBatch is one atomic set of undirected edge changes. Each inserted
// edge {u,v} adds the arcs u→v and v→u; each deleted edge removes every
// occurrence of both arcs (multi-edges are deleted together; deleting an
// absent edge is a no-op). Per vertex, the new adjacency list is the old list
// with deleted targets filtered out, in old order, followed by the inserted
// targets in batch order — a deterministic layout both the capsule program
// and the host-side ApplyTo reproduce exactly.
type MutationBatch struct {
	Insert [][2]int `json:"insert,omitempty"`
	Delete [][2]int `json:"delete,omitempty"`
}

// Edges returns the number of edge entries in the batch.
func (b MutationBatch) Edges() int { return len(b.Insert) + len(b.Delete) }

// validate rejects out-of-range endpoints and self-loops.
func (b MutationBatch) validate(n int) error {
	check := func(es [][2]int, what string) error {
		for _, e := range es {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				return fmt.Errorf("graph: %s edge (%d,%d) out of range for n=%d", what, e[0], e[1], n)
			}
			if e[0] == e[1] {
				return fmt.Errorf("graph: %s edge (%d,%d) is a self-loop", what, e[0], e[1])
			}
		}
		return nil
	}
	if err := check(b.Insert, "insert"); err != nil {
		return err
	}
	return check(b.Delete, "delete")
}

// ApplyTo returns the graph after the batch, host-side. The per-vertex arc
// order matches the capsule program bit for bit: survivors of the old list in
// old order, then inserted targets in batch order.
func (b MutationBatch) ApplyTo(g *Graph) (*Graph, error) {
	if err := b.validate(g.N); err != nil {
		return nil, err
	}
	ins := make(map[int][]uint64)
	for _, e := range b.Insert {
		ins[e[0]] = append(ins[e[0]], uint64(e[1]))
		ins[e[1]] = append(ins[e[1]], uint64(e[0]))
	}
	del := make(map[int]map[uint64]bool)
	for _, e := range b.Delete {
		for _, d := range [2][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			if del[d[0]] == nil {
				del[d[0]] = make(map[uint64]bool)
			}
			del[d[0]][uint64(d[1])] = true
		}
	}
	out := &Graph{N: g.N, Offs: make([]uint64, g.N+1)}
	for v := 0; v < g.N; v++ {
		dv := del[v]
		for _, t := range g.Adj[g.Offs[v]:g.Offs[v+1]] {
			if dv != nil && dv[t] {
				continue
			}
			out.Adj = append(out.Adj, t)
		}
		out.Adj = append(out.Adj, ins[v]...)
		out.Offs[v+1] = uint64(len(out.Adj))
	}
	return out, nil
}

// deltaCSR compacts the batch into per-source-vertex CSR form for staging:
// insert targets and delete targets grouped by source, each edge contributing
// to both endpoints. Group order per vertex is batch order.
func (b MutationBatch) deltaCSR(n int) (insOffs, insTgts, delOffs, delTgts []uint64) {
	group := func(es [][2]int) ([]uint64, []uint64) {
		offs := make([]uint64, n+1)
		for _, e := range es {
			offs[e[0]+1]++
			offs[e[1]+1]++
		}
		for v := 0; v < n; v++ {
			offs[v+1] += offs[v]
		}
		tgts := make([]uint64, 2*len(es))
		next := make([]uint64, n)
		copy(next, offs[:n])
		for _, e := range es {
			tgts[next[e[0]]] = uint64(e[1])
			next[e[0]]++
			tgts[next[e[1]]] = uint64(e[0])
			next[e[1]]++
		}
		return offs, tgts
	}
	insOffs, insTgts = group(b.Insert)
	delOffs, delTgts = group(b.Delete)
	return
}

// Resident is a graph resident in a runtime's persistent memory as an
// epoch-versioned CSR ring. Slot e%slots holds epoch e's arrays while e is
// within the last `slots` committed epochs; Apply writes the next epoch's
// slot and commits the durable epoch word as the final root-chain step.
// Apply may be called concurrently: one batch is staged and applied at a
// time, and a call that finds another in flight is refused.
type Resident struct {
	tag      string
	base     *Graph // epoch-0 host graph
	n        int
	slots    int
	arcCap   int // arcs capacity per version slot
	batchCap int // max edges per batch (staging capacity)

	rt     *ppm.Runtime
	offs   ppm.Array // slots*(n+1) per-slot arc offsets
	adj    ppm.Array // slots*arcCap per-slot arc targets
	epochW ppm.Array // 1 durable word: last committed epoch
	deg    ppm.Array // n scratch: next epoch's degrees
	ndeg   ppm.Array // n scratch: inclusive prefix sums of deg
	insO   ppm.Array // n+1 staged insert offsets
	insT   ppm.Array // 2*batchCap staged insert targets
	delO   ppm.Array // n+1 staged delete offsets
	delT   ppm.Array // 2*batchCap staged delete targets
	mutW   ppm.Array // staged [srcSlot, dstSlot]

	applyRoot ppm.FuncRef

	// applyMu is held by the Apply that owns the staging arrays, from the
	// first staged word until its run returns.
	applyMu sync.Mutex

	mu    sync.Mutex
	epoch uint64
	cur   *Graph // host mirror of the current epoch
}

// ErrEpochGone reports a reader pinned to an epoch that has fallen out of
// the version ring (more than slots-1 batches committed since the pin).
var ErrEpochGone = fmt.Errorf("graph: pinned epoch fell out of the version ring")

// NewResident prepares an epoch-versioned resident graph. slots is the
// version ring size (minimum 2: a batch writes one slot while readers stay
// on another; slots-1 is the snapshot-isolation window in batches). arcCap
// is the arc capacity of every slot (clamped to at least the base graph's
// arcs plus one batch of inserts); batchCap caps the edges per batch.
func NewResident(tag string, g *Graph, slots, arcCap, batchCap int) *Resident {
	if slots < 2 {
		slots = 2
	}
	if batchCap < 1 {
		batchCap = 1
	}
	if min := len(g.Adj) + 2*batchCap; arcCap < min {
		arcCap = min
	}
	return &Resident{tag: tag, base: g, n: g.N, slots: slots,
		arcCap: arcCap, batchCap: batchCap, cur: g}
}

// Epoch returns the last committed epoch. This is the "pin" operation: a
// reader captures the epoch at admission and later binds its run to that
// epoch's slot via SlotFor.
func (r *Resident) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Current returns the host mirror of the current epoch's graph.
func (r *Resident) Current() *Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// SlotFor maps a pinned epoch to its version slot. ok is false when the
// epoch has been overwritten by later batches (the ring keeps slots epochs).
func (r *Resident) SlotFor(epoch uint64) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch > r.epoch || r.epoch-epoch >= uint64(r.slots) {
		return 0, false
	}
	return int(epoch % uint64(r.slots)), true
}

// bind hands a kernel the version ring, read at the slot its root capsule
// stores in slotW. The Resident's own Build must come first.
func (r *Resident) bind(_ *ppm.Runtime, slotW ppm.Array) vcsr {
	return vcsr{offs: r.offs, adj: r.adj, slotW: slotW, n: r.n, cap: r.arcCap}
}

func (r *Resident) epoch0() *Graph    { return r.base }
func (r *Resident) slot() int         { return int(r.Epoch() % uint64(r.slots)) }
func (r *Resident) transpose() Source { return r }

// at reads the graph of a version slot back out of persistent memory. A slot
// claiming more arcs than it holds is cut at its capacity; Recovered reports
// it.
func (r *Resident) at(slot int) *Graph {
	offs := r.offs.SnapshotRange(slot*(r.n+1), (slot+1)*(r.n+1))
	arcs := int(min(offs[r.n], uint64(r.arcCap)))
	return &Graph{N: r.n, Offs: offs, Adj: r.adj.SnapshotRange(slot*r.arcCap, slot*r.arcCap+arcs)}
}

// Build allocates the version ring, the durable epoch word, and the staging
// areas, loads epoch 0 into slot 0, and registers the batch-apply program.
// Allocation and registration order is fixed — a recovered runtime replays
// it identically (loads are suppressed in rebuild mode; the region already
// holds the durable state).
func (r *Resident) Build(rt *ppm.Runtime) {
	r.rt = rt
	n := r.n
	name := "graph/mut/" + r.tag
	grain := grainsFor(rt)
	r.offs = rt.NewArray(r.slots * (n + 1))
	r.offs.LoadAt(0, r.base.Offs) // slot 0
	r.adj = rt.NewArray(r.slots * r.arcCap)
	r.adj.LoadAt(0, r.base.Adj) // slot 0
	r.epochW = rt.NewArray(1)   // zero value = epoch 0
	r.deg = rt.NewArray(n)
	r.ndeg = rt.NewArray(n)
	r.insO = rt.NewArray(n + 1)
	r.insT = rt.NewArray(2 * r.batchCap)
	r.delO = rt.NewArray(n + 1)
	r.delT = rt.NewArray(2 * r.batchCap)
	r.mutW = rt.NewArray(2)

	// degLeaf computes the next epoch's degree of vertices [lo, hi): old arcs
	// surviving the staged deletes plus the staged inserts. Reads the source
	// slot and the staging areas, writes only deg — WAR-free, and every
	// replay recomputes the same values from durable inputs.
	degLeaf := rt.Register(name+"/deg", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		mw := r.mutW.Slice(c, 0, 2)
		srcOB, srcAB := int(mw[0])*(n+1), int(mw[0])*r.arcCap
		ovals := r.offs.Slice(c, srcOB+lo, srcOB+hi+1)
		// Consecutive vertices' lists are consecutive in the slot: one Slice.
		old := r.adj.Slice(c, srcAB+int(ovals[0]), srcAB+int(ovals[hi-lo]))
		iO := r.insO.Slice(c, lo, hi+1)
		dO := r.delO.Slice(c, lo, hi+1)
		var dels []uint64
		if dO[hi-lo] > dO[0] {
			dels = r.delT.Slice(c, int(dO[0]), int(dO[hi-lo]))
		}
		vals := c.Scratch(hi - lo)
		ai := 0
		for i := range vals {
			dv := dels[int(dO[i]-dO[0]):int(dO[i+1]-dO[0])]
			keep := 0
			for end := ai + int(ovals[i+1]-ovals[i]); ai < end; ai++ {
				if !slices.Contains(dv, old[ai]) {
					keep++
				}
			}
			vals[i] = uint64(keep) + (iO[i+1] - iO[i])
		}
		r.deg.SetRange(c, lo, vals)
		c.Done()
	})
	degP := rt.Register(name+"/degP", func(c ppm.Ctx) {
		c.ParallelFor(degLeaf, 0, n, grain.scan)
	})

	psumRoot := ppm.RegisterPrefixSum(rt, name+"/psum", n, psumLeaf, r.deg, r.ndeg)

	// offsLeaf publishes the destination slot's offsets from the inclusive
	// prefix sums: offs[0] = 0, offs[v+1] = ndeg[v].
	offsLeaf := rt.Register(name+"/offs", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		mw := r.mutW.Slice(c, 0, 2)
		dstOB := int(mw[1]) * (n + 1)
		if lo == 0 {
			r.offs.Set(c, dstOB, 0)
		}
		r.offs.SetRange(c, dstOB+lo+1, r.ndeg.Slice(c, lo, hi))
		c.Done()
	})
	offsP := rt.Register(name+"/offsP", func(c ppm.Ctx) {
		c.ParallelFor(offsLeaf, 0, n, grain.dense)
	})

	// emitLeaf writes the destination slot's arcs for vertices [lo, hi):
	// survivors of the old list in old order, then inserted targets in batch
	// order. Destination start offsets come from ndeg (written two phases
	// ago), so the leaf reads only the source slot, the staging areas, and
	// the prefix sums, and writes a contiguous destination range no other
	// leaf touches.
	emitLeaf := rt.Register(name+"/emit", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		mw := r.mutW.Slice(c, 0, 2)
		srcOB, srcAB := int(mw[0])*(n+1), int(mw[0])*r.arcCap
		dstAB := int(mw[1]) * r.arcCap
		ovals := r.offs.Slice(c, srcOB+lo, srcOB+hi+1)
		old := r.adj.Slice(c, srcAB+int(ovals[0]), srcAB+int(ovals[hi-lo]))
		iO := r.insO.Slice(c, lo, hi+1)
		dO := r.delO.Slice(c, lo, hi+1)
		var inss, dels []uint64
		if iO[hi-lo] > iO[0] {
			inss = r.insT.Slice(c, int(iO[0]), int(iO[hi-lo]))
		}
		if dO[hi-lo] > dO[0] {
			dels = r.delT.Slice(c, int(dO[0]), int(dO[hi-lo]))
		}
		start := uint64(0)
		if lo > 0 {
			start = r.ndeg.Get(c, lo-1)
		}
		out := c.Scratch(len(old) + len(inss))[:0] // every survivor plus every insert
		ai := 0
		for i := 0; i < hi-lo; i++ {
			dv := dels[int(dO[i]-dO[0]):int(dO[i+1]-dO[0])]
			for end := ai + int(ovals[i+1]-ovals[i]); ai < end; ai++ {
				if t := old[ai]; !slices.Contains(dv, t) {
					out = append(out, t)
				}
			}
			out = append(out, inss[int(iO[i]-iO[0]):int(iO[i+1]-iO[0])]...)
		}
		if len(out) > 0 {
			//ppm:allow warfree the Slice above reads the SOURCE slot's arc range and this writes the DESTINATION slot's; the slot bases (srcAB vs dstAB) are distinct ring slots of one array, so the regions are disjoint and replay re-reads unchanged words
			r.adj.SetRange(c, dstAB+int(start), out)
		}
		c.Done()
	})
	emitP := rt.Register(name+"/emitP", func(c ppm.Ctx) {
		c.ParallelFor(emitLeaf, 0, n, grain.scan)
	})

	// commit publishes the new epoch. The value arrives as an argument (the
	// host computed it before the run), so a replay writes the same absolute
	// word — no read-increment, no WAR conflict.
	commit := rt.Register(name+"/commit", func(c ppm.Ctx) {
		r.epochW.Set(c, 0, c.Uint(0))
		c.Done()
	})

	// The apply root is the run's chain-tail: on a durable runtime each Seq
	// step is a recorded root-chain phase whose start commits its
	// predecessor, and run completion (the final sync after commit) is the
	// batch's persistence point.
	r.applyRoot = rt.Register(name+"/apply", func(c ppm.Ctx) {
		c.Seq(degP.Call(), psumRoot.Call(), offsP.Call(), emitP.Call(),
			commit.Call(c.Uint(0)))
	})
}

// Apply stages the batch and runs the apply program, committing epoch+1.
// The commit is a persistence point on a durable runtime: once Apply returns
// true, the batch survives kill-9; if the process dies mid-run, Recover +
// Build + Resume completes the interrupted batch from its last committed
// chain step and lands on the same state. Apply is safe to call from several
// goroutines: while one batch is being staged or applied, another Apply
// returns ppm.ErrRuntimeBusy without staging anything. It also returns
// ppm.ErrRuntimeBusy when a reader program holds the runtime; what it staged
// then is read by no program, and the next Apply stages over it.
func (r *Resident) Apply(b MutationBatch) (ok bool, err error) {
	if b.Edges() > r.batchCap {
		return false, fmt.Errorf("graph: batch of %d edges exceeds capacity %d", b.Edges(), r.batchCap)
	}
	if !r.applyMu.TryLock() {
		return false, ppm.ErrRuntimeBusy
	}
	defer r.applyMu.Unlock()
	r.mu.Lock()
	cur, epoch := r.cur, r.epoch
	r.mu.Unlock()
	next, err := b.ApplyTo(cur)
	if err != nil {
		return false, err
	}
	if len(next.Adj) > r.arcCap {
		return false, fmt.Errorf("graph: batch grows graph to %d arcs, slot capacity %d",
			len(next.Adj), r.arcCap)
	}
	if r.rt.Closed() {
		return false, ppm.ErrRuntimeClosed
	}
	insO, insT, delO, delT := b.deltaCSR(r.n)
	r.insO.Load(insO)
	r.insT.LoadAt(0, insT)
	r.delO.Load(delO)
	r.delT.LoadAt(0, delT)
	srcSlot := epoch % uint64(r.slots)
	dstSlot := (epoch + 1) % uint64(r.slots)
	r.mutW.Load([]uint64{srcSlot, dstSlot})
	ok, err = r.rt.TryRun(r.applyRoot, epoch+1)
	if err != nil || !ok {
		return ok, err
	}
	r.mu.Lock()
	r.epoch, r.cur = epoch+1, next
	r.mu.Unlock()
	return true, nil
}

// Recovered re-synchronizes the host mirror from persistent memory after a
// recovered runtime's Resume: the durable epoch word names the committed
// epoch, and its slot's arrays are the committed CSR. Call it once, after
// Resume returns true.
func (r *Resident) Recovered() error {
	epoch := r.epochW.Snapshot()[0]
	slot := int(epoch % uint64(r.slots))
	g := r.at(slot)
	if arcs := g.Offs[r.n]; arcs > uint64(r.arcCap) {
		return fmt.Errorf("graph: recovered slot %d holds %d arcs, capacity %d", slot, arcs, r.arcCap)
	}
	r.mu.Lock()
	r.epoch, r.cur = epoch, g
	r.mu.Unlock()
	return nil
}
