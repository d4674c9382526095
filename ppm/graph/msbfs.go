package graph

import (
	"fmt"

	"repro/ppm"
)

// MultiBFS is a batched breadth-first search: one frontier program explores
// from up to KMax sources simultaneously, giving each source its own copy of
// the vertex space. Source slot s owns the combined ids [s*n, (s+1)*n); a
// frontier entry s*n+v means "vertex v, search s", and one round driver
// (frontier.go) serves every width, its fuse count applying to the combined
// frontier. The claimant word of an entry is its parent: racing claims and
// fault replays are both resolved by the CAM owner[v]: NIL → u, and any
// winner is a valid level-(d-1) neighbour. Depth is O(diameter) rounds and
// work per round O(frontier + frontier arcs), so a search is O(n + arcs)
// however many rounds it takes.
//
// Batching is the serving layer's coalescing primitive: k concurrent BFS
// queries against the same graph share the rounds, the trees and the capsules
// of one program run instead of paying k sequential runs. One program serves
// every batch width: the width, the sources and the CSR version slot are the
// root capsule's arguments (capsule programs are closed at Build time;
// runtime values may only flow through arguments), so nothing is staged in
// persistent memory before the run is owned and a call refused with
// ppm.ErrRuntimeBusy leaves the run in flight untouched.
type MultiBFS struct {
	binding
	kind     string // "msbfs", or "bfs" for BFS's single search
	tag      string
	kMax     int
	fr       *frontier // kMax rows: row s holds search s
	lastSrcs []int     // sources of the last RunBatch, for Verify
}

// maxBatchWidth is the largest batch a MultiBFS runs: the sources and the
// version slot ride the root capsule's arguments, and a durable region
// records sixteen argument words per capsule.
const maxBatchWidth = 15

// NewMultiBFS builds a batched BFS over g with capacity kMax sources per
// batch; a kMax above 15 is capped there (see maxBatchWidth). Memory is
// proportional to kMax*n words, so callers pick the smallest capacity their
// batching needs (the serving layer uses its configured max batch width).
func NewMultiBFS(tag string, g Source, kMax int) *MultiBFS {
	if kMax < 1 {
		panic("graph: MultiBFS needs kMax >= 1")
	}
	return &MultiBFS{binding: binding{src: g}, kind: "msbfs", tag: tag, kMax: min(kMax, maxBatchWidth)}
}

// NewMultiBFSResident is NewMultiBFS over a Resident's version ring.
func NewMultiBFSResident(tag string, res *Resident, kMax int) *MultiBFS {
	return NewMultiBFS(tag, res, kMax)
}

// KMax returns the batch capacity.
func (a *MultiBFS) KMax() int { return a.kMax }

func (a *MultiBFS) Name() string { return a.kind + "/" + a.tag }

// Build loads a *Graph source and registers the batch program on rt.
func (a *MultiBFS) Build(rt *ppm.Runtime) {
	g := a.src.epoch0()
	n := g.N
	name := "graph/" + a.Name()
	a.fr = newFrontier(rt, name, a.bind(rt), g, a.kMax)
	// root takes [slot, src0, src1, …]: source s seeds row s.
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		a.slotW.Set(c, 0, c.Uint(0))
		ids := make([]any, c.NArgs()-1)
		for s := range ids {
			ids[s] = uint64(s*n) + c.Uint(s+1)
		}
		c.Seq(a.fr.init.Call(len(ids)*n), a.fr.seed.Call(ids...), a.fr.round.Call(1, 0, 0))
	})
}

// RunBatch executes one batched BFS from sources (at most KMax, each a valid
// vertex; duplicates allowed — each occupies its own slot) over the last
// committed epoch. It propagates the runtime's lifecycle errors
// (ppm.ErrRuntimeBusy, ppm.ErrRuntimeClosed), so a serving layer serializes
// batches with its own queue and treats Busy as a scheduling bug rather than
// a panic.
func (a *MultiBFS) RunBatch(sources []int) (bool, error) {
	return a.RunBatchAt(sources, a.src.slot())
}

// RunBatchAt is RunBatch bound to one CSR version slot: the whole batch
// reads that slot's arcs. Callers group queries by pinned epoch and map each
// group's epoch to its slot with Resident.SlotFor. A *Graph has slot 0 only.
func (a *MultiBFS) RunBatchAt(sources []int, slot int) (bool, error) {
	if len(sources) == 0 {
		return true, nil
	}
	if len(sources) > a.kMax {
		return false, fmt.Errorf("graph: MultiBFS batch of %d exceeds capacity %d", len(sources), a.kMax)
	}
	args := make([]any, len(sources))
	for i, s := range sources {
		if s < 0 || s >= a.fr.n {
			return false, fmt.Errorf("graph: MultiBFS source %d out of range for n=%d", s, a.fr.n)
		}
		args[i] = s
	}
	ok, err := a.runAt(slot, args...)
	if err != nil {
		return false, err
	}
	a.lastSrcs = append(a.lastSrcs[:0], sources...)
	return ok, nil
}

// Levels returns the level of every vertex for batch slot i of the last
// RunBatch (INF for unreachable vertices), copied out of the combined array.
func (a *MultiBFS) Levels(i int) []uint64 {
	if i < 0 || i >= len(a.lastSrcs) {
		panic(fmt.Sprintf("graph: MultiBFS slot %d out of range for batch of %d", i, len(a.lastSrcs)))
	}
	n := a.fr.n
	return a.fr.level.SnapshotRange(i*n, (i+1)*n)
}

// Verify checks every row of the last batch against a sequential BFS from
// its source over the graph of the slot the batch read: its levels, its
// parent tree, and that the rounds swept every reached entry exactly once.
func (a *MultiBFS) Verify() error {
	g := a.src.at(a.slot)
	var want []uint64
	for _, src := range a.lastSrcs {
		want = append(want, bfsReference(g, src)...)
	}
	got := a.fr.level.SnapshotRange(0, len(want))
	if err := sameLevels(got, want, a.fr.visited.Snapshot()[0]); err != nil {
		return fmt.Errorf("%s: sources %v, rows of %d: %w", a.Name(), a.lastSrcs, g.N, err)
	}
	owner := a.fr.owner.SnapshotRange(0, len(want))
	for s, src := range a.lastSrcs {
		lo, hi := s*g.N, (s+1)*g.N
		if err := sameTree(g, src, got[lo:hi], owner[lo:hi], uint64(lo)); err != nil {
			return fmt.Errorf("%s: row %d, source %d: %w", a.Name(), s, src, err)
		}
	}
	return nil
}
