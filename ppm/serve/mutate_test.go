package serve

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/ppm/graph"
)

// serveGraph regenerates the host-side graph a server entry is built on
// (Generate is seeded with spec.Seed ^ cfg.Seed).
func serveGraph(t *testing.T, cfg Config, spec GraphSpec) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(spec.Kind, spec.N, spec.M, spec.Seed^cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mkBatch derives a deterministic mutation batch: a few inserts and deletes
// seeded by (seed, round) so the chaos child and every reference compute the
// identical edit sequence.
func mkBatch(g *graph.Graph, seed uint64, round int) graph.MutationBatch {
	rnd := rand.New(rand.NewSource(int64(seed)*1000 + int64(round)))
	var b graph.MutationBatch
	for k := 0; k < 12; k++ {
		u, v := rnd.Intn(g.N), rnd.Intn(g.N)
		if u != v {
			b.Insert = append(b.Insert, [2]int{u, v})
		}
	}
	for k := 0; k < 4; k++ {
		u := rnd.Intn(g.N)
		if g.Offs[u+1] == g.Offs[u] {
			continue
		}
		j := g.Offs[u] + uint64(rnd.Intn(int(g.Offs[u+1]-g.Offs[u])))
		b.Delete = append(b.Delete, [2]int{u, int(g.Adj[j])})
	}
	return b
}

// Host-side reference summaries, computed exactly the way the serve layer
// summarizes run outputs, so checksums compare bit for bit.

func refBFSChecksum(g *graph.Graph, src int) uint64 {
	const inf = ^uint64(0)
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
	return summarizeBFS(src, lev).Checksum
}

func refCC(g *graph.Graph) (components, checksum uint64) {
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
	comp := map[int]struct{}{}
	for v := 0; v < g.N; v++ {
		r := uint64(find(v))
		comp[int(r)] = struct{}{}
		checksum += r * 31
	}
	return uint64(len(comp)), checksum
}

func refPRChecksum(g *graph.Graph, iters int) uint64 {
	var sum uint64
	for _, r := range graph.PageRankResidentRef(g, iters) {
		sum = sum*31 + r
	}
	return sum
}

// TestServeMutate drives the full mutate-then-read path: a committed batch
// bumps the epoch, reads answer against the new version with checksums that
// match host references, memo tables re-key per epoch, and the counters
// track it all.
func TestServeMutate(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSlots = 3
	s := New(cfg)
	defer s.Close()
	spec := smallGraph(21)
	host := serveGraph(t, cfg, spec)

	r0, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 0})
	if err != nil {
		t.Fatalf("bfs@0: %v", err)
	}
	if r0.Epoch != 0 || r0.Checksum != refBFSChecksum(host, 0) {
		t.Fatalf("epoch-0 bfs = %+v, want epoch 0 checksum %d", r0, refBFSChecksum(host, 0))
	}

	b := mkBatch(host, spec.Seed, 1)
	mr, err := s.Mutate(Mutation{Graph: spec, Insert: b.Insert, Delete: b.Delete})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	host2, err := b.ApplyTo(host)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Kind != "mutate" || mr.Epoch != 1 || mr.Checksum != uint64(host2.Arcs()) {
		t.Fatalf("mutate result = %+v, want epoch 1 arcs %d", mr, host2.Arcs())
	}

	// Reads now pin epoch 1 and answer against the mutated arrays; the old
	// epoch's memoized row must not leak across the epoch boundary.
	r1, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 0})
	if err != nil {
		t.Fatalf("bfs@1: %v", err)
	}
	if r1.Epoch != 1 || r1.Cached || r1.Checksum != refBFSChecksum(host2, 0) {
		t.Fatalf("epoch-1 bfs = %+v, want fresh epoch-1 checksum %d", r1, refBFSChecksum(host2, 0))
	}
	c1, err := s.Submit(Query{Graph: spec, Kind: "cc"})
	if err != nil {
		t.Fatalf("cc@1: %v", err)
	}
	wantComp, wantSum := refCC(host2)
	if c1.Extra != wantComp || c1.Checksum != wantSum {
		t.Fatalf("cc@1 = %+v, want %d components checksum %d", c1, wantComp, wantSum)
	}
	p1, err := s.Submit(Query{Graph: spec, Kind: "pagerank"})
	if err != nil {
		t.Fatalf("pagerank@1: %v", err)
	}
	if p1.Checksum != refPRChecksum(host2, cfg.PageRankIters) {
		t.Fatalf("pagerank@1 checksum %d, want %d", p1.Checksum, refPRChecksum(host2, cfg.PageRankIters))
	}
	// Same-epoch repeats are cache hits.
	if r2, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 0}); err != nil || !r2.Cached {
		t.Fatalf("epoch-1 repeat not cached: %+v err=%v", r2, err)
	}

	st := s.Stats()
	if st.Mutations != 1 {
		t.Fatalf("Mutations = %d, want 1", st.Mutations)
	}
	if st.Epochs[spec.Key()] != 1 {
		t.Fatalf("Epochs = %v, want %s at 1", st.Epochs, spec.Key())
	}

	// Refusal paths: empty and oversized batches never reach the runner.
	if _, err := s.Mutate(Mutation{Graph: spec}); err == nil {
		t.Fatal("empty mutation accepted")
	}
	big := make([][2]int, cfg.MutBatchCap+1)
	for i := range big {
		big[i] = [2]int{0, 1 + i%(spec.N-1)}
	}
	if _, err := s.Mutate(Mutation{Graph: spec, Insert: big}); err == nil {
		t.Fatal("oversized mutation accepted")
	}
}

// TestCoalesceRatioCountsReadRunsOnly: a commit is a program run, and Runs
// counts it, but the coalesce ratio is queries per read run. One read, one
// commit and one read at the new epoch answer two queries in two read runs:
// a ratio of 1, not the 2/3 that dividing by all three runs would report.
func TestCoalesceRatioCountsReadRunsOnly(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	defer s.Close()
	spec := smallGraph(22)
	host := serveGraph(t, cfg, spec)
	if _, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("bfs@0: %v", err)
	}
	b := mkBatch(host, spec.Seed, 1)
	if _, err := s.Mutate(Mutation{Graph: spec, Insert: b.Insert, Delete: b.Delete}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 0}); err != nil || r.Cached {
		t.Fatalf("bfs@1 = %+v, %v; want a fresh run", r, err)
	}
	st := s.Stats()
	if st.Runs != 3 || st.RunQueries != 2 || st.Mutations != 1 {
		t.Fatalf("Runs/RunQueries/Mutations = %d/%d/%d, want 3/2/1", st.Runs, st.RunQueries, st.Mutations)
	}
	if st.CoalesceRatio < 1 {
		t.Fatalf("CoalesceRatio = %.2f, want >= 1: fewer than one query per read run", st.CoalesceRatio)
	}
}

// TestServeSnapshotGone pins a reader at an epoch, commits enough batches to
// push it out of the 2-slot ring, and checks the runner answers
// ErrSnapshotGone (503) rather than silently reading a newer version.
func TestServeSnapshotGone(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSlots = 2
	s := New(cfg)
	defer s.Close()
	spec := smallGraph(22)
	host := serveGraph(t, cfg, spec)

	e, err := s.entryFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	pinned := e.res.Epoch()
	for round := 1; round <= 2; round++ {
		b := mkBatch(host, spec.Seed, round)
		if _, err := s.Mutate(Mutation{Graph: spec, Insert: b.Insert, Delete: b.Delete}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var applyErr error
		host, applyErr = b.ApplyTo(host)
		if applyErr != nil {
			t.Fatal(applyErr)
		}
	}
	// Hand the runner a waiter still pinned at the evicted epoch.
	pq := &pending{q: Query{Graph: spec, Kind: "bfs", Source: 3}, epoch: pinned,
		done: make(chan struct{}), expiry: time.Now().Add(5 * time.Second)}
	if err := e.enqueue(pq); err != nil {
		t.Fatal(err)
	}
	<-pq.done
	if !errors.Is(pq.err, ErrSnapshotGone) {
		t.Fatalf("stale pinned reader got (%+v, %v), want ErrSnapshotGone", pq.res, pq.err)
	}
	// A fresh read still works and sees the current epoch.
	r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != 2 || r.Checksum != refBFSChecksum(host, 3) {
		t.Fatalf("fresh read = %+v, want epoch 2 checksum %d", r, refBFSChecksum(host, 3))
	}
}

// TestServeMutateFaultSweep reruns the mutate-then-read flow with injected
// soft faults: capsule replays along the mutation and query paths must leave
// every answer bit-identical to the clean run's host references.
func TestServeMutateFaultSweep(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSlots = 3
	cfg.FaultRate = 0.002
	s := New(cfg)
	defer s.Close()
	spec := smallGraph(23)
	host := serveGraph(t, cfg, spec)

	for round := 1; round <= 3; round++ {
		b := mkBatch(host, spec.Seed, round)
		mr, err := s.Mutate(Mutation{Graph: spec, Insert: b.Insert, Delete: b.Delete})
		if err != nil {
			t.Fatalf("round %d: mutate: %v", round, err)
		}
		host, err = b.ApplyTo(host)
		if err != nil {
			t.Fatal(err)
		}
		if mr.Epoch != uint64(round) || mr.Checksum != uint64(host.Arcs()) {
			t.Fatalf("round %d: mutate result %+v, want epoch %d arcs %d",
				round, mr, round, host.Arcs())
		}
		r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: round})
		if err != nil {
			t.Fatalf("round %d: bfs: %v", round, err)
		}
		if r.Checksum != refBFSChecksum(host, round) {
			t.Fatalf("round %d: bfs checksum %d, want %d under faults",
				round, r.Checksum, refBFSChecksum(host, round))
		}
	}
}

// TestDrainKeepsRegionsAndRecovers is the graceful-shutdown round trip:
// Drain syncs and keeps the region files, RecoverResident in a new server
// re-admits the graph at its committed epoch, and answers match the
// pre-shutdown state bit for bit. Close afterwards removes the regions.
func TestDrainKeepsRegionsAndRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "regions")
	cfg := testConfig()
	cfg.DurableDir = dir
	cfg.EpochSlots = 2
	spec := smallGraph(24)
	host := serveGraph(t, cfg, spec)

	s1 := New(cfg)
	if _, err := s1.Submit(Query{Graph: spec, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	b := mkBatch(host, spec.Seed, 1)
	if _, err := s1.Mutate(Mutation{Graph: spec, Insert: b.Insert, Delete: b.Delete}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	var err error
	host, err = b.ApplyTo(host)
	if err != nil {
		t.Fatal(err)
	}
	s1.Drain(10 * time.Second)
	region := filepath.Join(dir, spec.regionName())
	if !fileExists(region) {
		t.Fatal("Drain removed the region file")
	}
	if s1.Ready() {
		t.Fatal("drained server still reports ready")
	}
	if _, err := s1.Submit(Query{Graph: spec, Kind: "bfs", Source: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrClosed", err)
	}

	s2 := New(cfg)
	if n := s2.RecoverResident(); n != 1 {
		t.Fatalf("RecoverResident = %d, want 1", n)
	}
	if !s2.Ready() {
		t.Fatal("recovered server not ready")
	}
	st := s2.Stats()
	if st.Epochs[spec.Key()] != 1 {
		t.Fatalf("recovered epochs = %v, want %s at 1", st.Epochs, spec.Key())
	}
	r, err := s2.Submit(Query{Graph: spec, Kind: "bfs", Source: 0})
	if err != nil {
		t.Fatalf("post-recovery bfs: %v", err)
	}
	if r.Epoch != 1 || r.Checksum != refBFSChecksum(host, 0) {
		t.Fatalf("post-recovery bfs = %+v, want epoch 1 checksum %d", r, refBFSChecksum(host, 0))
	}
	// The recovered graph keeps mutating.
	b2 := mkBatch(host, spec.Seed, 2)
	mr, err := s2.Mutate(Mutation{Graph: spec, Insert: b2.Insert, Delete: b2.Delete})
	if err != nil {
		t.Fatalf("post-recovery mutate: %v", err)
	}
	if mr.Epoch != 2 {
		t.Fatalf("post-recovery mutate epoch = %d, want 2", mr.Epoch)
	}
	s2.Close()
	if fileExists(region) {
		t.Fatal("Close left the region file behind")
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestColdBFSFillsLastEpochSources: after a commit, the first cold BFS runs
// the sweep (graph.MultiBFS's program rule holds on the small random graph)
// and fills its free width with the sources the memo answered at the old
// epoch and read from there, so the next reads of those sources are memo
// hits at the new epoch, with the answers of the new graph. A source the
// old epoch read only once is not filled, and a filled answer ranks behind
// the one the read asked for. Before the commit there is nothing to fill:
// each new source is one run, and a repeated one a memo hit.
func TestColdBFSFillsLastEpochSources(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 8
	s := New(cfg)
	defer s.Close()
	spec := smallGraph(23)
	host := serveGraph(t, cfg, spec)
	hot, once := []int{0, 1, 2, 3, 4}, 5
	for _, src := range append(hot, once) {
		if r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: src}); err != nil || r.Cached {
			t.Fatalf("bfs(%d)@0 = %+v, %v; want a fresh run", src, r, err)
		}
	}
	for _, src := range hot {
		if r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: src}); err != nil || !r.Cached {
			t.Fatalf("repeated bfs(%d)@0 = %+v, %v; want a memo hit", src, r, err)
		}
	}
	e, err := s.entryFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !e.ms.Sweeps(cfg.MaxBatch) {
		t.Fatal("the small random graph does not sweep at full width: the test shows no fill")
	}
	if st := s.Stats(); st.Runs != 6 || st.CacheHits != 5 || len(e.memo) != 6 {
		t.Fatalf("epoch 0: Runs/CacheHits/memo = %d/%d/%d, want 6/5/6: no commit, no fill",
			st.Runs, st.CacheHits, len(e.memo))
	}

	b := mkBatch(host, spec.Seed, 1)
	if _, err := s.Mutate(Mutation{Graph: spec, Insert: b.Insert, Delete: b.Delete}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	host2, err := b.ApplyTo(host)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 2})
	if err != nil || r.Cached || r.Epoch != 1 || r.Batched != 1 || r.Checksum != refBFSChecksum(host2, 2) {
		t.Fatalf("bfs(2)@1 = %+v, %v; want one fresh run, checksum %d", r, err, refBFSChecksum(host2, 2))
	}
	e.memoMu.Lock()
	front := e.memoLRU.Front().Value.(*memoEntry).key
	_, filledOnce := e.memo[memoKey{"bfs", once, 1}]
	e.memoMu.Unlock()
	if front != (memoKey{"bfs", 2, 1}) || filledOnce {
		t.Fatalf("after the filled run: most recent memo key %+v, bfs(%d)@1 memoized %v; want bfs(2)@1 and false",
			front, once, filledOnce)
	}
	for _, src := range hot {
		r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: src})
		if err != nil || !r.Cached || r.Epoch != 1 || r.Checksum != refBFSChecksum(host2, src) {
			t.Fatalf("bfs(%d)@1 = %+v, %v; want a memo hit, checksum %d", src, r, err, refBFSChecksum(host2, src))
		}
	}
	if r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: once}); err != nil || r.Cached || r.Epoch != 1 {
		t.Fatalf("bfs(%d)@1 = %+v, %v; want a fresh run", once, r, err)
	}
	// One mutation and two read runs at epoch 1, the first filled with
	// the four other hot sources; five hits before the commit and five
	// after, four of them filled.
	st := s.Stats()
	if st.Runs != 9 || st.CacheHits != 10 || st.RunQueries != 8 || st.Mutations != 1 {
		t.Fatalf("Runs/CacheHits/RunQueries/Mutations = %d/%d/%d/%d, want 9/10/8/1",
			st.Runs, st.CacheHits, st.RunQueries, st.Mutations)
	}
}

// TestDeepGridIsNeverFilled: on a 30×30 mesh every search of record runs
// more rounds than the program rule allows at any width, so a cold BFS
// after a commit runs its own source alone, and each old source is a run of
// its own again, though each was read from the memo at epoch 0. The commit
// cuts corner 0 off the mesh, and the first read after it searches from
// there: one round, reaching one vertex, which the rule does not take for
// the mesh's depth, so the reads after it are not filled either.
func TestDeepGridIsNeverFilled(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 8
	s := New(cfg)
	defer s.Close()
	spec := GraphSpec{Kind: "grid", N: 900}
	hot := []int{0, 450, 899, 31}
	for range 2 {
		for _, src := range hot {
			if _, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: src}); err != nil {
				t.Fatalf("bfs(%d)@0: %v", src, err)
			}
		}
	}
	if _, err := s.Mutate(Mutation{Graph: spec, Delete: [][2]int{{0, 1}, {0, 30}}}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	e, err := s.entryFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range hot {
		if r, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: src}); err != nil || r.Cached || r.Epoch != 1 {
			t.Fatalf("bfs(%d)@1 = %+v, %v; want a fresh run at epoch 1", src, r, err)
		}
		if e.ms.Sweeps(cfg.MaxBatch) {
			t.Fatalf("after bfs(%d)@1 the mesh sweeps at full width", src)
		}
	}
	if st := s.Stats(); st.Runs != 9 || st.CacheHits != 4 || st.RunQueries != 8 {
		t.Fatalf("Runs/CacheHits/RunQueries = %d/%d/%d, want 9/4/8", st.Runs, st.CacheHits, st.RunQueries)
	}
}
