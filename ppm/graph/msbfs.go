package graph

import (
	"fmt"
	"sync/atomic"

	"repro/ppm"
)

// MultiBFS is a batched breadth-first search: one run explores from up to
// KMax sources, giving each source its own copy of the vertex space. Source
// slot s owns the combined ids [s*n, (s+1)*n), and a run leaves the level
// and parent of vertex v in search s at combined id s*n+v, whichever of its
// two programs ran it.
//
// The rows program is BFS over the batch's rows: a frontier entry s*n+v
// means "vertex v, search s", and one round driver (frontier.go) serves
// every width, its fuse count and direction rule applying to the combined
// frontier and the batch's rows·n ids. The claimant word of an entry is its
// parent. A pushing round claims it, racing claims and fault replays both
// resolved by the CAM owner[v]: NIL → u, any winner a valid level-(d-1)
// neighbour. A pulling round stores it, the first level-(d-1) neighbour in
// arc order. Depth is O(diameter) rounds. A pushing round does O(frontier +
// frontier arcs) work. A pulling round does O(rows·n + the unvisited ids'
// arcs), and runs only while the frontier, ids no earlier round swept, holds
// at least 1/24 of the ids, so a search pulls at most 24 times, and
// compacts, one more O(rows·n) sweep, at most once after each pull. A search
// stays O(n + arcs) per row however many rounds it takes.
//
// The sweep (sweep.go) is one bit-parallel search for every source of the
// batch: per vertex a seen mask and a frontier mask, one bit per slot, and
// per round one dense pull over the arcs of the vertices some slot has not
// reached, O(n + arcs) a round for all k slots. It takes the same parents
// the pull does, the first neighbour one level up in arc order. A batch of
// k ≥ 2 sources sweeps when the last search of the same MultiBFS that
// reached a quarter of the vertices ran at most 2.5·k rounds (sweepRounds);
// Sweeps reports the choice.
//
// Batching is the serving layer's coalescing primitive: k concurrent BFS
// queries against the same graph share the rounds and the capsules of one
// program run instead of paying k sequential runs, and a sweeping run
// costs little more for each source it adds. Both programs serve every
// batch width: the width, the sources and the CSR version slot are the
// root capsule's arguments (capsule programs are closed at Build time;
// runtime values may only flow through arguments), so nothing is staged in
// persistent memory before the run is owned and a call refused with
// ppm.ErrRuntimeBusy leaves the run in flight untouched.
type MultiBFS struct {
	binding
	kind      string // "msbfs", or "bfs" for BFS's single search
	tag       string
	kMax      int
	fr        *frontier   // kMax rows: row s holds search s
	sw        *sweep      // the sweep program, for a kMax of 2 or more
	sweepRoot ppm.FuncRef // the sweep's root; binding.root is the rows program's
	lastSrcs  []int       // sources of the last RunBatch, for Verify
	// rounds of the last search that reached n/historyReach pairs, 0
	// before one did: a RunBatchAt refused with ppm.ErrRuntimeBusy reads it
	// while the batch in flight sets it.
	rounds atomic.Int64
}

// The program rule: a batch of k ≥ 2 sources sweeps when the MultiBFS's
// last search of record ran at most 2.5·k rounds, 2·rounds ≤ sweepRounds·k. A
// sweep reads the arcs of the unfinished vertices once per round for all
// the sources, while the rows program's k searches each read every arc
// about once, so the sweep wins while the rounds are few against k. The
// factor is the break-even of the two on the native engine at P = 2 (a
// 2-core box, medians of 11 runs): it fell between k = 4 and 5 at 13
// rounds on Rand(32768, 65536), at k = 4 at 9 rounds on Rand(100000,
// 400000) and between k = 2 and 3 at 6 rounds on RMAT(32768, 131072),
// where at k = 8 the sweep took 15.5, 48.0 and 8.0 ms against the rows'
// 25.2, 70.9 and 13.2 ms. The 128×128 mesh's 242 rounds kept the rows
// program ahead at every width up to 15 (35.6 ms against 71.6 at k = 15).
// An earlier search's rounds stand in for this one's, which no one knows
// before it runs: a serving layer's batches search one graph, whose depth
// from a source of its large component moves little from source to source
// and epoch to epoch. A source in a small component is not such a source:
// from an isolated vertex of a mesh a search ends after one round, and
// taking that as the mesh's depth would sweep its next batches, hundreds
// of passes over the arcs. So a search is of record only when its rows
// together reached at least n/historyReach (source, vertex) pairs, a share
// a source outside a graph's large component cannot reach (the largest
// component of RMAT(32768, 131072) holds 53% of the vertices, of
// Rand(32768, 65536) 98%), and every other search leaves the rule as it
// was. A MultiBFS with no search of record, a width-1 batch and a deep
// graph keep the rows program.
const (
	sweepRounds  = 5
	historyReach = 4
)

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
	n, arcs := a.src.size()
	name := "graph/" + a.Name()
	a.fr = newFrontier(rt, name, a.bind(rt), arcs, a.kMax)
	// Each root takes [slot, src0, src1, …]: source s seeds row s.
	seedIDs := func(c ppm.Ctx) []any {
		a.slotW.Set(c, 0, c.Uint(0))
		ids := make([]any, c.NArgs()-1)
		for s := range ids {
			ids[s] = uint64(s*n) + c.Uint(s+1)
		}
		return ids
	}
	a.root = rt.Register(name+"/root", func(c ppm.Ctx) {
		ids := seedIDs(c)
		extent := len(ids) * n
		c.Seq(a.fr.init.Call(extent), a.fr.seed.Call(ids...), a.fr.round.Call(1, 0, 0, extent, 0, 0))
	})
	if a.kMax < 2 {
		return
	}
	a.sw = newSweep(rt, name, a.fr)
	a.sweepRoot = rt.Register(name+"/sweep/root", func(c ppm.Ctx) {
		ids := seedIDs(c)
		full := uint64(1)<<len(ids) - 1
		c.Seq(a.sw.reset.Call(len(ids)*n), a.sw.seed.Call(ids...), a.sw.round.Call(1, 0, 0, full))
	})
}

// Sweeps reports whether a batch of k sources runs the sweep program: by
// the rule sweepRounds states, when k ≥ 2, the MultiBFS can batch more than
// one source, and its last search of record ran at most 2.5·k rounds. A
// caller that can add sources to a batch asks it with the width it could
// fill, since a wider batch only makes the sweep more likely.
func (a *MultiBFS) Sweeps(k int) bool {
	r := int(a.rounds.Load())
	return a.kMax >= 2 && k >= 2 && r > 0 && 2*r <= sweepRounds*k
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
	root := a.root
	if a.Sweeps(len(sources)) {
		root = a.sweepRoot
	}
	ok, err := a.runFrom(root, slot, args...)
	if err != nil {
		return false, err
	}
	a.lastSrcs = append(a.lastSrcs[:0], sources...)
	if ok && historyReach*a.fr.visited() >= uint64(a.fr.n) {
		a.rounds.Store(int64(a.fr.rounds()))
	}
	return ok, nil
}

// Levels returns the level of every vertex for batch slot i of the last
// RunBatch (INF for unreachable vertices), copied out of the combined array.
func (a *MultiBFS) Levels(i int) []uint64 {
	if i < 0 || i >= len(a.lastSrcs) {
		panic(fmt.Sprintf("graph: MultiBFS slot %d out of range for batch of %d", i, len(a.lastSrcs)))
	}
	n := a.fr.n
	return a.fr.levels(i*n, (i+1)*n)
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
	got := a.fr.levels(0, len(want))
	if err := sameLevels(got, want, a.fr.visited()); err != nil {
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
