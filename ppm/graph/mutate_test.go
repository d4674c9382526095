package graph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/ppm"
	"repro/ppm/graph"
)

// hostBFS is the sequential BFS reference over an arbitrary host graph, here
// the mutated mirror: an independent check beside each kernel's own Verify,
// which reads its graph back out of the slot it ran on.
func hostBFS(g *graph.Graph, src int) []uint64 {
	inf := ^uint64(0)
	lev := make([]uint64, g.N)
	for i := range lev {
		lev[i] = inf
	}
	lev[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Adj[g.Offs[u]:g.Offs[u+1]] {
			if lev[w] == inf {
				lev[w] = lev[u] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return lev
}

// hostCC is sequential union-find component minima over a host graph.
func hostCC(g *graph.Graph) []uint64 {
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

// fixedBatches are hand-checkable mutation batches over fixedGraph (9
// vertices, path 0—1—2—3 + 1—4, triangle 5—6—7, isolated 8): the first
// bridges the two components and attaches vertex 8, the second cuts the
// bridge again and trims the triangle, the third re-links 8 elsewhere.
func fixedBatches() []graph.MutationBatch {
	return []graph.MutationBatch{
		{Insert: [][2]int{{4, 5}, {8, 0}}},
		{Delete: [][2]int{{4, 5}, {5, 6}}, Insert: [][2]int{{3, 4}}},
		{Delete: [][2]int{{8, 0}}, Insert: [][2]int{{8, 7}}},
	}
}

func sameGraph(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.Offs, want.Offs) || !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("%s: graph mismatch\n got offs=%v adj=%v\nwant offs=%v adj=%v",
			what, got.Offs, got.Adj, want.Offs, want.Adj)
	}
}

// TestResidentApplyBothEngines applies a batch sequence and, after every
// commit, demands (a) the host mirror match an independent ApplyTo chain,
// (b) Recovered() re-derive the identical graph from persistent memory, and
// (c) all three kernels over the Resident agree bit-exactly with host
// references computed on the mutated graph and pass their own Verify, which
// must check the slot the run read, not epoch 0.
func TestResidentApplyBothEngines(t *testing.T) {
	for _, eng := range bothEngines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			g := fixedGraph()
			res := graph.NewResident("apply", g, 3, 0, 8)
			rt := newRT(eng, 2)
			defer rt.Close()
			res.Build(rt)
			ms := graph.NewMultiBFSResident("apply", res, 2)
			ms.Build(rt)
			cc := graph.Components("apply", res)
			cc.Build(rt)
			pr := graph.PageRank("apply", res, 8)
			pr.Build(rt)
			verify := func(i int, kernels ...interface{ Verify() error }) {
				t.Helper()
				for _, k := range kernels {
					if err := k.Verify(); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
			}

			mirror := g
			for i, b := range fixedBatches() {
				var err error
				mirror, err = b.ApplyTo(mirror)
				if err != nil {
					t.Fatalf("batch %d: ApplyTo: %v", i, err)
				}
				ok, err := res.Apply(b)
				if err != nil || !ok {
					t.Fatalf("batch %d: Apply: ok=%v err=%v", i, ok, err)
				}
				if e := res.Epoch(); e != uint64(i+1) {
					t.Fatalf("batch %d: epoch = %d, want %d", i, e, i+1)
				}
				sameGraph(t, "mirror", res.Current(), mirror)
				// Re-derive the mirror from pmem: the slot arrays must hold the
				// same graph the host-side apply computed.
				if err := res.Recovered(); err != nil {
					t.Fatalf("batch %d: Recovered: %v", i, err)
				}
				sameGraph(t, "pmem", res.Current(), mirror)

				slot, okSlot := res.SlotFor(res.Epoch())
				if !okSlot {
					t.Fatalf("batch %d: current epoch not in ring", i)
				}
				ok, err = ms.RunBatchAt([]int{0, 5}, slot)
				if err != nil || !ok {
					t.Fatalf("batch %d: RunBatchAt: ok=%v err=%v", i, ok, err)
				}
				for si, src := range []int{0, 5} {
					want := hostBFS(mirror, src)
					if got := ms.Levels(si); !slices.Equal(got, want) {
						t.Fatalf("batch %d: bfs from %d = %v, want %v", i, src, got, want)
					}
				}
				ok, err = cc.RunAt(slot)
				if err != nil || !ok {
					t.Fatalf("batch %d: cc.RunAt: ok=%v err=%v", i, ok, err)
				}
				if got, want := cc.Output(), hostCC(mirror); !slices.Equal(got, want) {
					t.Fatalf("batch %d: cc = %v, want %v", i, got, want)
				}
				ok, err = pr.RunAt(slot)
				if err != nil || !ok {
					t.Fatalf("batch %d: pr.RunAt: ok=%v err=%v", i, ok, err)
				}
				if got, want := pr.Output(), graph.PageRankResidentRef(mirror, 8); !slices.Equal(got, want) {
					t.Fatalf("batch %d: pagerank not bit-exact vs forward-order reference", i)
				}
				verify(i, ms, cc, pr)
			}
		})
	}
}

// TestResidentSnapshotIsolation pins an epoch, commits two mutation batches
// past it, and demands a MultiBFS bound to the pinned slot still read the
// pinned epoch's arcs — on both engines (run under -race in CI). A third
// batch pushes the pin out of the 3-slot ring and SlotFor must refuse it.
func TestResidentSnapshotIsolation(t *testing.T) {
	for _, eng := range bothEngines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			g := fixedGraph()
			res := graph.NewResident("iso", g, 3, 0, 8)
			rt := newRT(eng, 2)
			defer rt.Close()
			res.Build(rt)
			ms := graph.NewMultiBFSResident("iso", res, 2)
			ms.Build(rt)

			pinned := res.Epoch() // epoch 0
			pinSlot, ok := res.SlotFor(pinned)
			if !ok {
				t.Fatal("fresh epoch not in ring")
			}
			batches := fixedBatches()
			mirror := g
			for i, b := range batches[:2] {
				var err error
				mirror, err = b.ApplyTo(mirror)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if ok, err := res.Apply(b); err != nil || !ok {
					t.Fatalf("batch %d: Apply: ok=%v err=%v", i, ok, err)
				}
			}

			// The reader pinned at epoch 0 still sees epoch-0 arcs: vertex 8 is
			// isolated and the components are disconnected, despite the first
			// batch having bridged them two commits ago.
			if ok, err := ms.RunBatchAt([]int{0, 8}, pinSlot); err != nil || !ok {
				t.Fatalf("pinned RunBatchAt: ok=%v err=%v", ok, err)
			}
			for si, src := range []int{0, 8} {
				want := hostBFS(g, src)
				if got := ms.Levels(si); !slices.Equal(got, want) {
					t.Fatalf("pinned bfs from %d = %v, want epoch-0 %v", src, got, want)
				}
			}
			// An unpinned reader sees the current epoch.
			curSlot, ok := res.SlotFor(res.Epoch())
			if !ok {
				t.Fatal("current epoch not in ring")
			}
			if ok, err := ms.RunBatchAt([]int{0, 8}, curSlot); err != nil || !ok {
				t.Fatalf("current RunBatchAt: ok=%v err=%v", ok, err)
			}
			for si, src := range []int{0, 8} {
				want := hostBFS(mirror, src)
				if got := ms.Levels(si); !slices.Equal(got, want) {
					t.Fatalf("current bfs from %d = %v, want epoch-2 %v", src, got, want)
				}
			}

			// Batch 3 overwrites slot 0 (epoch 3 = 0 mod 3): the pin is gone.
			if ok, err := res.Apply(batches[2]); err != nil || !ok {
				t.Fatalf("third Apply: ok=%v err=%v", ok, err)
			}
			if _, ok := res.SlotFor(pinned); ok {
				t.Fatal("epoch 0 still mapped after 3 commits on a 3-slot ring")
			}
		})
	}
}

// TestResidentRejects pins the refusal paths: oversized batches, bad
// endpoints, arc-capacity exhaustion, and Apply after Close.
func TestResidentRejects(t *testing.T) {
	g := fixedGraph()
	res := graph.NewResident("rej", g, 2, 0, 2)
	rt := newRT(ppm.EngineNative, 1)
	defer rt.Close()
	res.Build(rt)

	if _, err := res.Apply(graph.MutationBatch{
		Insert: [][2]int{{0, 2}, {0, 3}, {0, 5}}}); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := res.Apply(graph.MutationBatch{Insert: [][2]int{{0, 9}}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := res.Apply(graph.MutationBatch{Insert: [][2]int{{3, 3}}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	// Capacity: arcCap clamps to len(Adj)+2*batchCap = 14+4 = 18; one
	// insert-only batch fills the slot exactly, the next overflows it.
	if ok, err := res.Apply(graph.MutationBatch{
		Insert: [][2]int{{0, 5}, {8, 0}}}); err != nil || !ok {
		t.Fatalf("fill batch: ok=%v err=%v", ok, err)
	}
	if _, err := res.Apply(graph.MutationBatch{
		Insert: [][2]int{{0, 7}, {1, 8}}}); err == nil {
		t.Fatal("arc-capacity overflow accepted")
	}
	// Deleting an absent edge is a no-op, not an error.
	before := res.Current()
	if ok, err := res.Apply(graph.MutationBatch{Delete: [][2]int{{2, 7}}}); err != nil || !ok {
		t.Fatalf("absent-delete batch: ok=%v err=%v", ok, err)
	}
	sameGraph(t, "absent delete", res.Current(), before)

	rt.Close()
	if _, err := res.Apply(graph.MutationBatch{Insert: [][2]int{{0, 2}}}); err == nil {
		t.Fatal("Apply after Close accepted")
	}
}

// TestResidentConcurrentApply has two goroutines apply batches to one
// Resident at once, each toggling its own edges on its own half of the
// vertices. Every call is either accepted, committing exactly its batch, or
// refused with ppm.ErrRuntimeBusy, staging nothing: so the committed graph is
// each goroutine's accepted batches run through ApplyTo in its own order (the
// halves share no vertex, so the two chains commute), both in the host
// mirror and in persistent memory, and the epoch counts the accepted
// batches. Under -race a refused call that staged anyway is also a data race
// with the apply program reading the staging arrays.
func TestResidentConcurrentApply(t *testing.T) {
	const (
		half  = 32
		want  = 60 // accepted batches per side
		tries = 1 << 20
	)
	g := graph.Rand(2*half, 4*half, 5)
	res := graph.NewResident("concurrent", g, 2, len(g.Adj)+64, 8)
	rt := newRT(ppm.EngineNative, 2)
	defer rt.Close()
	res.Build(rt)

	accepted := make([][]graph.MutationBatch, 2)
	refused := make([]int, 2)
	errs := make(chan error, 2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for side := 0; side < 2; side++ {
		wg.Add(1)
		go func(side int) {
			defer wg.Done()
			<-start
			lo := side * half
			edges := [][2]int{{lo, lo + 1}, {lo + 2, lo + 7}, {lo + 3, lo + half - 1}, {lo + 5, lo + 11}}
			for i := 0; len(accepted[side]) < want; i++ {
				if i == tries {
					errs <- fmt.Errorf("side %d: %d of %d batches accepted in %d tries", side, len(accepted[side]), want, tries)
					return
				}
				b := graph.MutationBatch{Insert: edges}
				if len(accepted[side])%2 == 1 {
					b = graph.MutationBatch{Delete: edges}
				}
				ok, err := res.Apply(b)
				switch {
				case errors.Is(err, ppm.ErrRuntimeBusy):
					refused[side]++
					runtime.Gosched()
				case err != nil || !ok:
					errs <- fmt.Errorf("side %d attempt %d: ok=%v err=%v", side, i, ok, err)
					return
				default:
					accepted[side] = append(accepted[side], b)
				}
			}
		}(side)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("refused %d+%d", refused[0], refused[1])

	mirror := g
	for _, bs := range accepted {
		for _, b := range bs {
			var err error
			if mirror, err = b.ApplyTo(mirror); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e, want := res.Epoch(), uint64(len(accepted[0])+len(accepted[1])); e != want {
		t.Fatalf("epoch = %d, want %d accepted batches", e, want)
	}
	sameGraph(t, "mirror", res.Current(), mirror)
	if err := res.Recovered(); err != nil {
		t.Fatalf("Recovered: %v", err)
	}
	sameGraph(t, "pmem", res.Current(), mirror)
}

// TestResidentFaultSweep drives a randomized batch sequence through the
// apply program under injected soft faults on both engines: capsule replays
// along the mutation path must not perturb the committed graph, which stays
// bit-exact against the host ApplyTo chain.
func TestResidentFaultSweep(t *testing.T) {
	for _, eng := range bothEngines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			g := graph.Rand(192, 384, 11)
			const batches, batchCap = 4, 48
			res := graph.NewResident("fault", g, 2,
				len(g.Adj)+2*batchCap*(batches+1), batchCap)
			rt := ppm.New(
				ppm.WithEngine(eng),
				ppm.WithProcs(2),
				ppm.WithSeed(29),
				ppm.WithMemWords(1<<24),
				ppm.WithPoolWords(1<<21),
				ppm.WithFaultRate(0.001))
			defer rt.Close()
			res.Build(rt)

			rnd := rand.New(rand.NewSource(99))
			mirror := g
			for i := 0; i < batches; i++ {
				var b graph.MutationBatch
				for k := 0; k < 24; k++ {
					u, v := rnd.Intn(g.N), rnd.Intn(g.N)
					if u != v {
						b.Insert = append(b.Insert, [2]int{u, v})
					}
				}
				// Delete a few edges that exist in the current mirror.
				for k := 0; k < 8 && mirror.Arcs() > 0; k++ {
					u := rnd.Intn(g.N)
					if mirror.Offs[u+1] == mirror.Offs[u] {
						continue
					}
					j := mirror.Offs[u] + uint64(rnd.Intn(int(mirror.Offs[u+1]-mirror.Offs[u])))
					b.Delete = append(b.Delete, [2]int{u, int(mirror.Adj[j])})
				}
				var err error
				mirror, err = b.ApplyTo(mirror)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if ok, err := res.Apply(b); err != nil || !ok {
					t.Fatalf("batch %d: Apply: ok=%v err=%v", i, ok, err)
				}
				sameGraph(t, "mirror", res.Current(), mirror)
				if err := res.Recovered(); err != nil {
					t.Fatalf("batch %d: Recovered: %v", i, err)
				}
				sameGraph(t, "pmem", res.Current(), mirror)
			}
			if rt.Stats().SoftFaults == 0 {
				t.Fatal("fault sweep injected no faults; raise the rate or the batch sizes")
			}
		})
	}
}

// TestResidentDurableRecovery is the clean-shutdown recovery unit test: a
// resident on a durable region commits two batches and closes; Recover +
// identical Build + Resume + Recovered must land on the committed epoch with
// the committed graph, and the recovered runtime must accept further batches.
func TestResidentDurableRecovery(t *testing.T) {
	file := filepath.Join(t.TempDir(), "resident.region")
	g := fixedGraph()
	batches := fixedBatches()

	build := func(rt *ppm.Runtime) (*graph.Resident, *graph.MultiBFS) {
		res := graph.NewResident("dur", g, 3, 0, 8)
		res.Build(rt)
		ms := graph.NewMultiBFSResident("dur", res, 2)
		ms.Build(rt)
		return res, ms
	}

	rt := ppm.New(
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(2),
		ppm.WithSeed(31),
		ppm.WithMemWords(1<<21),
		ppm.WithNativeDurable(file))
	res, _ := build(rt)
	mirror := g
	for i, b := range batches[:2] {
		var err error
		mirror, err = b.ApplyTo(mirror)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if ok, err := res.Apply(b); err != nil || !ok {
			t.Fatalf("batch %d: Apply: ok=%v err=%v", i, ok, err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := ppm.Recover(file, ppm.WithSeed(31))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	res2, ms2 := build(rec)
	done, err := rec.Resume()
	if err != nil || !done {
		t.Fatalf("Resume = (%v, %v), want (true, nil)", done, err)
	}
	if err := res2.Recovered(); err != nil {
		t.Fatalf("Recovered: %v", err)
	}
	if e := res2.Epoch(); e != 2 {
		t.Fatalf("recovered epoch = %d, want 2", e)
	}
	sameGraph(t, "recovered", res2.Current(), mirror)

	// The recovered runtime keeps serving: a read bound to the recovered
	// epoch and a further committed batch both work.
	slot, ok := res2.SlotFor(res2.Epoch())
	if !ok {
		t.Fatal("recovered epoch not in ring")
	}
	if ok, err := ms2.RunBatchAt([]int{0}, slot); err != nil || !ok {
		t.Fatalf("post-recovery RunBatchAt: ok=%v err=%v", ok, err)
	}
	if got, want := ms2.Levels(0), hostBFS(mirror, 0); !slices.Equal(got, want) {
		t.Fatalf("post-recovery bfs = %v, want %v", got, want)
	}
	mirror, err = batches[2].ApplyTo(mirror)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := res2.Apply(batches[2]); err != nil || !ok {
		t.Fatalf("post-recovery Apply: ok=%v err=%v", ok, err)
	}
	if e := res2.Epoch(); e != 3 {
		t.Fatalf("post-recovery epoch = %d, want 3", e)
	}
	sameGraph(t, "post-recovery", res2.Current(), mirror)
}

// TestMutationBatchApplyTo pins the host-side apply semantics the capsule
// program mirrors: survivor order, insert order, multi-edge delete, and the
// delta-CSR staging invariants are all deterministic.
func TestMutationBatchApplyTo(t *testing.T) {
	g := graph.FromArcs(4, [][2]int{
		{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 2}, {2, 0}, // multi-edge 0—2
		{1, 2}, {2, 1},
	})
	b := graph.MutationBatch{
		Delete: [][2]int{{0, 2}},         // removes BOTH parallel 0—2 edges
		Insert: [][2]int{{3, 0}, {3, 1}}, // batch order per vertex
	}
	out, err := b.ApplyTo(g)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.FromArcs(4, [][2]int{
		{0, 1}, {0, 3}, // survivor first, then insert
		{1, 0}, {1, 2}, {1, 3},
		{2, 1},
		{3, 0}, {3, 1},
	})
	sameGraph(t, "ApplyTo", out, want)
	if n := b.Edges(); n != 3 {
		t.Fatalf("Edges = %d, want 3", n)
	}
}
