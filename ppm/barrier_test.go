package ppm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/ppm"
	"repro/ppm/graph"
)

// The barrier-snapshot harness is the first rung of the power-cut oracle. A
// power cut keeps, at the least, what the last returned MS_SYNC barrier put
// in the file; every barrier is issued at a quiescent point, so a copy taken
// right after one returns is exactly such a file. The tests below copy the
// region at every barrier of a durable run — including between a phase
// commit's data barrier and its index barrier, where the file holds a
// completed phase the index does not yet claim — then Recover and Resume
// each copy and require the uninterrupted run's output, bit for bit.
//
// What this does not model: pages the kernel wrote back between barriers (a
// real cut leaves some later stores in the file as well, page by page), and
// chain records torn by such a partial write. Those wait for checksummed
// records; until then the randomized kill-9 harness is the only cover for
// mid-phase states, and it keeps every store.

const (
	snapProcs    = 2
	snapMemWords = 1 << 17
	snapSeed     = 42
)

// barrierSnap is one copy of the region file, taken after a barrier returned.
type barrierSnap struct {
	file      string
	run       int                 // value of *run when the barrier was issued
	committed int64               // the region's committed phase index at that moment
	chain     []durable.ChainStep // the root chain recorded at that moment
}

// snapshotBarriers copies the region at path after each of its barriers until
// the test ends, tagging every copy with the caller's current *run.
func snapshotBarriers(t *testing.T, path string, run *int) *[]barrierSnap {
	dir := t.TempDir()
	snaps := &[]barrierSnap{}
	durable.AfterBarrier = func(r *durable.Region) {
		if r.Path() != path {
			return // a recovered copy's own barriers
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		file := filepath.Join(dir, fmt.Sprintf("snap-%d.region", len(*snaps)))
		if err := os.WriteFile(file, img, 0o644); err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		*snaps = append(*snaps, barrierSnap{file, *run, r.CommittedIdx(), r.ChainSteps()})
	}
	t.Cleanup(func() { durable.AfterBarrier = nil })
	return snaps
}

// requireMidCommitSnap fails unless some copy was taken between a phase
// commit's two barriers: the next copy of the same run shows the index one
// higher, so this one held the phase's data without the index claiming it.
func requireMidCommitSnap(t *testing.T, snaps []barrierSnap) {
	t.Helper()
	t.Logf("%d barrier snapshots", len(snaps))
	for i := 1; i < len(snaps); i++ {
		if snaps[i].run == snaps[i-1].run && snaps[i].committed == snaps[i-1].committed+1 {
			return
		}
	}
	t.Fatalf("none of %d snapshots fell between a data barrier and its index barrier", len(snaps))
}

func snapOpts(extra ...ppm.Option) []ppm.Option {
	return append([]ppm.Option{
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(snapProcs),
		ppm.WithSeed(snapSeed),
		ppm.WithMemWords(snapMemWords),
	}, extra...)
}

func TestBarrierSnapshotRecovery(t *testing.T) {
	for _, wl := range []struct {
		name string
		n    int
	}{
		// At n = 2879 the BFS frontiers are 1, 3, 23, 160, 968, 1 593, 129
		// and 1 entries: three fused rounds, a tree, three pulls, and a
		// compaction, which copies the levels back out of level[1], before
		// a fused push.
		{"bfs", 2879},
		{"pagerank", 1 << 8},
		{"cc", 1 << 8},
	} {
		name, n := wl.name, wl.n
		t.Run(name, func(t *testing.T) {
			ref, _ := ppm.NewByName(name, "snap", n, crashInputSeed)
			rt := ppm.New(snapOpts()...)
			ref.Build(rt)
			if !ref.Run() {
				t.Fatal("reference run did not complete")
			}
			want := ref.Output()
			rt.Close()

			path := filepath.Join(t.TempDir(), name+".region")
			run := 0
			snaps := snapshotBarriers(t, path, &run)
			alg, _ := ppm.NewByName(name, "snap", n, crashInputSeed)
			rt = ppm.New(snapOpts(ppm.WithNativeDurable(path))...)
			alg.Build(rt)
			run = 1
			if !alg.Run() {
				t.Fatal("durable run did not complete")
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			requireMidCommitSnap(t, *snaps)
			// Five barriers frame any run (Create, run begin, finish's two,
			// Close) and every phase commit adds two; a chain of k phases
			// commits k − 1 times. cc's root chain is Seq(initP, driver) and
			// each round's Seq(scanP, check), so it commits once and then once
			// per round: 7 + 2·rounds. A third phase in a round would make it
			// 7 + 4·rounds. Each round's chain names its iteration, check's
			// first argument.
			if name == "cc" {
				iters := map[uint64]bool{}
				for _, s := range *snaps {
					if len(s.chain) == 2 && len(s.chain[0].Args) == 1 && len(s.chain[1].Args) == 2 {
						iters[s.chain[1].Args[0]] = true
					}
				}
				for i := range uint64(len(iters)) {
					if !iters[i] {
						t.Fatalf("cc: the chains name iterations %v, not 0 to %d", iters, len(iters)-1)
					}
				}
				t.Logf("cc: %d rounds", len(iters))
				if want := 7 + 2*len(iters); len(*snaps) != want {
					t.Errorf("cc: %d barriers over %d rounds, want 7 + 2·rounds = %d", len(*snaps), len(iters), want)
				}
			}
			// pagerank's root chain is Seq(initP, driver) and each
			// iteration's Seq(scanP(it), driver(it+1)), one phase and one
			// commit per iteration: 7 + 2·iters. A second phase per
			// iteration would make it 7 + 4·iters.
			if name == "pagerank" {
				if want := 7 + 2*graph.DefaultIters; len(*snaps) != want {
					t.Errorf("pagerank: %d barriers over %d iterations, want 7 + 2·iters = %d",
						len(*snaps), graph.DefaultIters, want)
				}
				iters := map[uint64]bool{}
				for _, s := range *snaps {
					if len(s.chain) == 2 && len(s.chain[0].Args) == 1 && len(s.chain[1].Args) == 1 {
						iters[s.chain[0].Args[0]] = true
					}
				}
				for i := range uint64(graph.DefaultIters) {
					if !iters[i] {
						t.Fatalf("pagerank: the chains name iterations %v, not 0 to %d", iters, graph.DefaultIters-1)
					}
				}
			}
			// bfs commits seed and the first round driver, then per round (one
			// per level; the driver that finds the frontier empty starts no
			// phase) each phase of its chain but the first: the next driver
			// after a fused step or a pull, the down sweep too after a tree's up
			// sweep, and the push too after a compaction: 9 + 2·fused + 4·tree +
			// 2·pull + 2·compact, a compacting round counted once more as its
			// push.
			if name == "bfs" {
				// round' carries the next level, so each round records a chain
				// of its own, named by the function it starts with.
				fids := map[string]uint64{}
				rounds := map[uint64]string{} // next level -> the round's kind
				for _, s := range *snaps {
					if k := bfsRoundKind(t, fids, s.chain); k != "" {
						rounds[s.chain[len(s.chain)-1].Args[0]] = k
					}
				}
				levels := map[uint64]bool{}
				for _, l := range want {
					if l != ^uint64(0) {
						levels[l] = true
					}
				}
				if len(rounds) != len(levels) {
					t.Fatalf("bfs: the chains name %d rounds for %d levels", len(rounds), len(levels))
				}
				kinds := map[string]int{}
				for _, k := range rounds {
					kinds[k]++
				}
				fused := kinds["fused"] + kinds["compact+fused"]
				tree := kinds["tree"] + kinds["compact+tree"]
				pull, compact := kinds["pull"], kinds["compact+fused"]+kinds["compact+tree"]
				t.Logf("bfs: %d fused, %d tree, %d pull rounds, %d compactions", fused, tree, pull, compact)
				if fused == 0 || tree == 0 || pull == 0 || compact == 0 {
					t.Fatalf("bfs: rounds %v: the input must have every kind", kinds)
				}
				if want := 9 + 2*fused + 4*tree + 2*pull + 2*compact; len(*snaps) != want {
					t.Errorf("bfs: %d barriers over rounds %v, want 9 + 2·fused + 4·tree + 2·pull + 2·compact = %d",
						len(*snaps), kinds, want)
				}
			}

			for i, s := range *snaps {
				rec, err := ppm.Recover(s.file, ppm.WithSeed(snapSeed))
				if s.run == 0 {
					// Create's barrier: a region that records no run.
					if err == nil {
						rec.Close()
						t.Errorf("snapshot %d: Recover accepted a region no run began on", i)
					}
					continue
				}
				if err != nil {
					t.Fatalf("snapshot %d: Recover: %v", i, err)
				}
				alg2, _ := ppm.NewByName(name, "snap", n, crashInputSeed)
				alg2.Build(rec)
				if done, err := rec.Resume(); err != nil || !done {
					t.Fatalf("snapshot %d (committed %d): Resume = (%v, %v)", i, s.committed, done, err)
				}
				if !slices.Equal(alg2.Output(), want) {
					t.Errorf("snapshot %d (committed %d): output differs from the uninterrupted run", i, s.committed)
				}
				if err := rec.Close(); err != nil {
					t.Errorf("snapshot %d: Close: %v", i, err)
				}
			}
		})
	}
}

// TestBarrierSnapshotRecoveryApply is the same oracle over Resident.Apply:
// a copy taken at any barrier of batch k's run must recover to exactly epoch
// k — the batch either replays to completion from its last committed phase
// or is already whole — and to the mirror graph ApplyTo predicts for it.
func TestBarrierSnapshotRecoveryApply(t *testing.T) {
	g := graph.Rand(64, 160, 9)
	batches := []graph.MutationBatch{
		{Insert: [][2]int{{1, 40}, {2, 41}, {3, 42}, {63, 0}}},
		{Delete: [][2]int{{1, 40}, {63, 0}}, Insert: [][2]int{{5, 6}}},
	}
	mirrors := []*graph.Graph{g}
	for _, b := range batches {
		next, err := b.ApplyTo(mirrors[len(mirrors)-1])
		if err != nil {
			t.Fatal(err)
		}
		mirrors = append(mirrors, next)
	}
	build := func(rt *ppm.Runtime) *graph.Resident {
		res := graph.NewResident("snap", g, 3, 0, 8)
		res.Build(rt)
		return res
	}

	path := filepath.Join(t.TempDir(), "apply.region")
	run := 0
	snaps := snapshotBarriers(t, path, &run)
	rt := ppm.New(snapOpts(ppm.WithNativeDurable(path))...)
	res := build(rt)
	for i, b := range batches {
		run = i + 1
		if ok, err := res.Apply(b); err != nil || !ok {
			t.Fatalf("batch %d: Apply = (%v, %v)", i, ok, err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	requireMidCommitSnap(t, *snaps)

	for i, s := range *snaps {
		if s.run == 0 {
			continue // Create's barrier; TestBarrierSnapshotRecovery covers the refusal
		}
		rec, err := ppm.Recover(s.file, ppm.WithSeed(snapSeed))
		if err != nil {
			t.Fatalf("snapshot %d: Recover: %v", i, err)
		}
		res2 := build(rec)
		if done, err := rec.Resume(); err != nil || !done {
			t.Fatalf("snapshot %d (batch %d, committed %d): Resume = (%v, %v)", i, s.run, s.committed, done, err)
		}
		if err := res2.Recovered(); err != nil {
			t.Fatalf("snapshot %d: Recovered: %v", i, err)
		}
		got, want := res2.Current(), mirrors[s.run]
		if res2.Epoch() != uint64(s.run) || !slices.Equal(got.Offs, want.Offs) || !slices.Equal(got.Adj, want.Adj) {
			t.Errorf("snapshot %d (batch %d, committed %d): recovered epoch %d, graph differs from the mirror",
				i, s.run, s.committed, res2.Epoch())
		}
		if err := rec.Close(); err != nil {
			t.Errorf("snapshot %d: Close: %v", i, err)
		}
	}
}
