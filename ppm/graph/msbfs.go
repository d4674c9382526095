package graph

import (
	"fmt"

	"repro/ppm"
)

// MultiBFS is a batched breadth-first search: one frontier program explores
// from up to KMax sources simultaneously, giving each source its own copy of
// the vertex space. Source slot s owns the combined ids [s*n, (s+1)*n); a
// frontier entry s*n+v means "vertex v, search s", so the round driver of
// single-source BFS (frontier.go: one step capsule for a small frontier, else
// claim and count up a tree over it and emit down it) carries over unchanged,
// the fuse count applying to the combined frontier — a leaf maps a combined
// id back to its vertex for the adjacency gather and forward again for the
// claim on its search's own row of claimant words.
//
// Batching is the serving layer's coalescing primitive: k concurrent BFS
// queries against the same graph share the rounds, the trees and the capsules
// of one program run instead of paying k sequential runs. One program serves
// every batch width: the width, the sources and the CSR version slot are the
// root capsule's arguments (capsule programs are closed at Build time;
// runtime values may only flow through arguments), so nothing is staged in
// persistent memory before the run is owned and a call refused with
// ppm.ErrRuntimeBusy leaves the run in flight untouched.
//
// Every capsule is WAR-free and ends in one control transfer, same as bfs.go:
// racing claims on a claimant word are resolved by CAM, so replays and
// cross-search races are both harmless.
type MultiBFS struct {
	tag  string
	g    *Graph
	kMax int
	res  *Resident // non-nil: read the epoch-versioned CSR ring

	rt    *ppm.Runtime
	fr    *frontier // kMax rows: row s holds search s
	root  ppm.FuncRef
	slotW ppm.Array // CSR version slot of the run, stored by its root capsule

	lastSrcs []int // sources of the last RunBatch, for Verify
}

// maxBatchWidth is the largest batch a MultiBFS runs: the sources and the
// version slot ride the root capsule's arguments, and a durable region
// records sixteen argument words per capsule.
const maxBatchWidth = 15

// NewMultiBFS builds a batched BFS over g with capacity kMax sources per
// batch; a kMax above 15 is capped there (see maxBatchWidth). Memory is
// proportional to kMax*n words, so callers pick the smallest capacity their
// batching needs (the serving layer uses its configured max batch width).
func NewMultiBFS(tag string, g *Graph, kMax int) *MultiBFS {
	if kMax < 1 {
		panic("graph: MultiBFS needs kMax >= 1")
	}
	return &MultiBFS{tag: tag, g: g, kMax: min(kMax, maxBatchWidth)}
}

// NewMultiBFSResident builds a batched BFS over a Resident's epoch-versioned
// CSR ring: RunBatchAt binds each run to one version slot, so a batch of
// queries pinned to epoch E reads epoch-E arcs regardless of later committed
// mutation batches (while E stays within the ring).
func NewMultiBFSResident(tag string, res *Resident, kMax int) *MultiBFS {
	a := NewMultiBFS(tag, res.base, kMax)
	a.res = res
	return a
}

// KMax returns the batch capacity.
func (a *MultiBFS) KMax() int { return a.kMax }

func (a *MultiBFS) Name() string { return "msbfs/" + a.tag }

// Build loads the graph and registers the batch program on rt.
func (a *MultiBFS) Build(rt *ppm.Runtime) {
	a.rt = rt
	n := a.g.N
	name := "graph/msbfs/" + a.tag
	a.slotW = rt.NewArray(1)
	a.fr = newFrontier(rt, name, bindCSR(rt, a.res, a.g, a.slotW), a.g, a.kMax)
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
// vertex; duplicates allowed — each occupies its own slot). It propagates the
// runtime's lifecycle errors (ppm.ErrRuntimeBusy, ppm.ErrRuntimeClosed), so a
// serving layer serializes batches with its own queue and treats Busy as a
// scheduling bug rather than a panic.
func (a *MultiBFS) RunBatch(sources []int) (bool, error) {
	slot := 0
	if a.res != nil {
		slot, _ = a.res.SlotFor(a.res.Epoch())
	}
	return a.RunBatchAt(sources, slot)
}

// RunBatchAt is RunBatch bound to one CSR version slot: the whole batch
// reads that slot's arcs. Callers group queries by pinned epoch and map each
// group's epoch to its slot with Resident.SlotFor. Standalone (non-resident)
// programs use slot 0.
func (a *MultiBFS) RunBatchAt(sources []int, slot int) (bool, error) {
	if len(sources) == 0 {
		return true, nil
	}
	if len(sources) > a.kMax {
		return false, fmt.Errorf("graph: MultiBFS batch of %d exceeds capacity %d", len(sources), a.kMax)
	}
	args := []any{slot}
	for _, s := range sources {
		if s < 0 || s >= a.g.N {
			return false, fmt.Errorf("graph: MultiBFS source %d out of range for n=%d", s, a.g.N)
		}
		args = append(args, s)
	}
	ok, err := a.rt.TryRun(a.root, args...)
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
	n := a.g.N
	return a.fr.level.SnapshotRange(i*n, (i+1)*n)
}

// Verify checks every row of the last batch against a sequential BFS from
// its source, and that the rounds swept every reached entry exactly once.
func (a *MultiBFS) Verify() error {
	var want []uint64
	for _, src := range a.lastSrcs {
		want = append(want, bfsReference(a.g, src)...)
	}
	got := a.fr.level.SnapshotRange(0, len(want))
	if err := sameLevels(got, want, a.fr.visited.Snapshot()[0]); err != nil {
		return fmt.Errorf("%s: sources %v, rows of %d: %w", a.Name(), a.lastSrcs, a.g.N, err)
	}
	return nil
}
