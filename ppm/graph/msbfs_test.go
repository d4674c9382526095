package graph_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/ppm"
	"repro/ppm/graph"
)

func TestMultiBFSBothEngines(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(string(eng), func(t *testing.T) {
			g := fixedGraph()
			ms := graph.NewMultiBFS("fixed", g, 4)
			rt := newRT(eng, 2)
			defer rt.Close()
			ms.Build(rt)

			// Batches exercising every width: singleton, partial (padded),
			// full, duplicates, unreachable components, isolated vertex.
			batches := [][]int{
				{0},
				{5, 8},
				{0, 3, 6, 8},
				{2, 2, 7},
			}
			for _, srcs := range batches {
				ok, err := ms.RunBatch(srcs)
				if err != nil || !ok {
					t.Fatalf("RunBatch(%v): ok=%v err=%v", srcs, ok, err)
				}
				if err := ms.Verify(); err != nil {
					t.Fatalf("RunBatch(%v): %v", srcs, err)
				}
			}
		})
	}
}

func TestMultiBFSRandomGraph(t *testing.T) {
	g := graph.Rand(300, 600, 7)
	ms := graph.NewMultiBFS("rand", g, 8)
	rt := newRT(ppm.EngineNative, 4)
	defer rt.Close()
	ms.Build(rt)
	ok, err := ms.RunBatch([]int{0, 17, 42, 99, 123, 200, 250, 299})
	if err != nil || !ok {
		t.Fatalf("RunBatch: ok=%v err=%v", ok, err)
	}
	if err := ms.Verify(); err != nil {
		t.Fatal(err)
	}
	// A second, narrower batch on the same resident program must fully reset.
	ok, err = ms.RunBatch([]int{123})
	if err != nil || !ok {
		t.Fatalf("second RunBatch: ok=%v err=%v", ok, err)
	}
	if err := ms.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiBFSRejectsBadBatches(t *testing.T) {
	g := fixedGraph()
	ms := graph.NewMultiBFS("bad", g, 2)
	rt := newRT(ppm.EngineNative, 1)
	defer rt.Close()
	ms.Build(rt)
	if _, err := ms.RunBatch([]int{0, 1, 2}); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := ms.RunBatch([]int{-1}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := ms.RunBatch([]int{9}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if ok, err := ms.RunBatch(nil); err != nil || !ok {
		t.Fatalf("empty batch: ok=%v err=%v", ok, err)
	}
	rt.Close()
	if _, err := ms.RunBatch([]int{0}); !errors.Is(err, ppm.ErrRuntimeClosed) {
		t.Fatalf("RunBatch after Close = %v, want ErrRuntimeClosed", err)
	}
}

// TestMultiBFSRefusedRunLeavesBatchAlone: the batch's sources and its CSR
// version slot ride the root capsule's arguments, so a RunBatchAt refused
// with ErrRuntimeBusy has written nothing the batch in flight reads. Staging
// them host-side before TryRun moved the slot word, which every leaf
// re-reads, and the sources under the running batch (and, under -race, is a
// data race with its workers).
func TestMultiBFSRefusedRunLeavesBatchAlone(t *testing.T) {
	// A long path: thousands of thin rounds keep the first batch in flight.
	const n = 1 << 13
	arcs := [][2]int{}
	for v := 0; v+1 < n; v++ {
		arcs = append(arcs, [2]int{v, v + 1}, [2]int{v + 1, v})
	}
	// Persistence points are the one counter the harness may read mid-run.
	rt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(2), ppm.WithSeed(17),
		ppm.WithMemWords(1<<22), ppm.WithNativePersist())
	defer rt.Close()
	res := graph.NewResident("busy", graph.FromArcs(n, arcs), 2, 0, 4)
	res.Build(rt)
	ms := graph.NewMultiBFSResident("busy", res, 4)
	ms.Build(rt)

	done := make(chan error, 1)
	go func() {
		ok, err := ms.RunBatchAt([]int{0, n - 1}, 0)
		if err == nil && !ok {
			err = errors.New("batch did not complete")
		}
		done <- err
	}()
	for rt.PersistPoints() == 0 { // until the batch is in flight
		runtime.Gosched()
	}
	// Slot 1 holds no graph and the sources differ: a refused call that
	// staged either would derail the batch above.
	for i := 0; i < 32; i++ {
		if _, err := ms.RunBatchAt([]int{n / 2, 3, 5}, 1); !errors.Is(err, ppm.ErrRuntimeBusy) {
			t.Fatalf("RunBatchAt during a running batch = %v, want ErrRuntimeBusy", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := ms.Verify(); err != nil { // lastSrcs: a refused call records nothing
		t.Fatal(err)
	}
}

// TestMultiBFSPullStraddlesRows runs MultiBFS batches of two and three rows
// over graphs of several leaves per row on both engines, so the pull tree's
// splits over rows·L leaves fall inside rows as well as between them. No
// leaf straddles a row: leaf j reads leaf j mod L of the table in row j / L,
// and must map every arc target into that row, by a base that is 0 only in
// row 0. Levels, parents and the frontier total are checked exactly by
// Verify, under soft faults and each engine's WAR checker, and every batch
// must pull. The rows program is forced: by the program rule the second
// batch, after a shallow first search, would sweep.
func TestMultiBFSPullStraddlesRows(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		srcs []int
	}{
		{"rand1000", graph.Rand(1000, 4000, 5), []int{0, 517, 999}},
		{"grid31x33", graph.Grid(31, 33), []int{511, 545, 478}},
	}
	for _, tc := range []struct {
		eng  ppm.Engine
		opts []ppm.Option
	}{
		{ppm.EngineModel, []ppm.Option{ppm.WithFaultRate(0.002), ppm.WithWARCheck()}},
		{ppm.EngineNative, []ppm.Option{ppm.WithFaultRate(1e-4), ppm.WithWARCheck()}},
	} {
		t.Run(string(tc.eng), func(t *testing.T) {
			rt := newRT(tc.eng, 2, tc.opts...)
			defer rt.Close()
			for _, gc := range graphs {
				ms := graph.NewMultiBFS("straddle-"+gc.name, gc.g, 3)
				ms.Build(rt)
				for width := 2; width <= 3; width++ {
					srcs := gc.srcs[:width]
					graph.NextProgram(ms, "rows")
					if ok, err := ms.RunBatch(srcs); err != nil || !ok {
						t.Fatalf("%s: RunBatch(%v) = (%v, %v)", gc.name, srcs, ok, err)
					}
					if err := ms.Verify(); err != nil {
						t.Fatalf("%s: %v", gc.name, err)
					}
					if kinds := graph.RoundKinds(ms); !slices.Contains(kinds, "pull") {
						t.Fatalf("%s: sources %v: rounds %v: no pull", gc.name, srcs, kinds)
					}
				}
			}
			if rt.Stats().SoftFaults == 0 {
				t.Error("no fault was injected")
			}
			if vs := rt.WARViolations(); len(vs) != 0 {
				t.Fatalf("WAR violations:\n%s", strings.Join(vs, "\n"))
			}
		})
	}
}

// TestMultiBFSSweepMatchesRows runs the same batches under each program on
// both engines, with and without soft faults, under each engine's WAR
// checker: a random graph, a mesh, the hostile multigraph (doubled arcs,
// self-loops, an unreachable tail) and a graph of several components, with
// duplicate and isolated sources. Each row's levels must equal the
// sequential BFS and the other program's bit for bit, Verify (parents, and
// the pairs reached against the reached vertices) must hold, and the sweep
// must log one sweep per round.
func TestMultiBFSSweepMatchesRows(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		srcs []int
	}{
		{"rand", graph.Rand(600, 1500, 3), []int{0, 5, 5, 299, 598, 17, 400, 1}},
		{"grid", graph.Grid(12, 13), []int{0, 155, 77, 77}},
		{"hostile", hostileGraph(), []int{0, 0, 1, 7, 160, 0, 199}},
		{"components", fixedGraph(), []int{8, 0, 5, 3, 8, 7, 4, 1, 2, 6, 0, 5, 5, 8, 3}},
	}
	for _, tc := range []struct {
		name string
		eng  ppm.Engine
		opts []ppm.Option
	}{
		{"model/clean", ppm.EngineModel, []ppm.Option{ppm.WithWARCheck()}},
		{"model/soft", ppm.EngineModel, []ppm.Option{ppm.WithFaultRate(0.002), ppm.WithWARCheck()}},
		{"native/clean", ppm.EngineNative, []ppm.Option{ppm.WithWARCheck()}},
		{"native/soft", ppm.EngineNative, []ppm.Option{ppm.WithFaultRate(1e-3), ppm.WithWARCheck()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(tc.eng, 2, tc.opts...)
			defer rt.Close()
			for _, gc := range graphs {
				ms := graph.NewMultiBFS("programs-"+gc.name, gc.g, 15)
				ms.Build(rt)
				levels := map[string][][]uint64{}
				for _, prog := range []string{"rows", "sweep"} {
					graph.NextProgram(ms, prog)
					if ok, err := ms.RunBatch(gc.srcs); err != nil || !ok {
						t.Fatalf("%s %s: RunBatch = (%v, %v)", gc.name, prog, ok, err)
					}
					if err := ms.Verify(); err != nil {
						t.Fatalf("%s %s: %v", gc.name, prog, err)
					}
					for i, src := range gc.srcs {
						lv := ms.Levels(i)
						if want := hostBFS(gc.g, src); !slices.Equal(lv, want) {
							t.Fatalf("%s %s: row %d (source %d): levels %v, want %v", gc.name, prog, i, src, lv, want)
						}
						levels[prog] = append(levels[prog], lv)
					}
					kinds := graph.RoundKinds(ms)
					if sweeps := slices.Index(kinds, "sweep") >= 0; sweeps != (prog == "sweep") {
						t.Fatalf("%s %s: rounds %v", gc.name, prog, kinds)
					}
				}
			}
			if strings.HasSuffix(tc.name, "/soft") && rt.Stats().SoftFaults == 0 {
				t.Error("no fault was injected")
			}
			if vs := rt.WARViolations(); len(vs) != 0 {
				t.Fatalf("WAR violations:\n%s", strings.Join(vs, "\n"))
			}
		})
	}
}

// TestMultiBFSProgramRule: a MultiBFS with no history runs the rows
// program; after a search of record of R rounds a batch of k ≥ 2 sources
// sweeps when 2R ≤ 5k, and a width-1 batch never does. The random graph's search runs
// 14 rounds, so its batches of 6 or more sweep and its pairs do not; the
// 40×40 mesh's corner search runs 79, past any width a MultiBFS takes.
func TestMultiBFSProgramRule(t *testing.T) {
	rt := newRT(ppm.EngineNative, 2)
	defer rt.Close()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		wide bool // an 8-wide batch sweeps after the first search
	}{
		{"rand", graph.Rand(2000, 3000, 9), true},
		{"grid", graph.Grid(40, 40), false},
	} {
		ms := graph.NewMultiBFS("rule-"+tc.name, tc.g, 15)
		ms.Build(rt)
		for k := 1; k <= 15; k++ {
			if ms.Sweeps(k) {
				t.Fatalf("%s: a MultiBFS with no history sweeps at width %d", tc.name, k)
			}
		}
		if ok, err := ms.RunBatch([]int{0}); err != nil || !ok {
			t.Fatalf("%s: RunBatch = (%v, %v)", tc.name, ok, err)
		}
		rounds := len(graph.RoundKinds(ms))
		t.Logf("%s: %d rounds", tc.name, rounds)
		for k := 1; k <= 15; k++ {
			if got, want := ms.Sweeps(k), k >= 2 && 2*rounds <= 5*k; got != want {
				t.Fatalf("%s: after %d rounds Sweeps(%d) = %v, want %v", tc.name, rounds, k, got, want)
			}
		}
		if ms.Sweeps(2) || ms.Sweeps(8) != tc.wide {
			t.Fatalf("%s: after %d rounds Sweeps(2) = %v, Sweeps(8) = %v", tc.name, rounds, ms.Sweeps(2), ms.Sweeps(8))
		}
		if ok, err := ms.RunBatch([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil || !ok {
			t.Fatalf("%s: RunBatch = (%v, %v)", tc.name, ok, err)
		}
		if err := ms.Verify(); err != nil {
			t.Fatal(err)
		}
		if swept := slices.Contains(graph.RoundKinds(ms), "sweep"); swept != tc.wide {
			t.Fatalf("%s: an 8-wide batch after %d rounds swept = %v", tc.name, rounds, swept)
		}
	}
}

// TestMultiBFSShallowSearchKeepsRule: on a 40×40 mesh whose corner 0 lost
// its edges, a search from the corner ends after one round and reaches one
// vertex, far short of the quarter of the vertices that makes a search of
// record. Before any search of record it leaves the MultiBFS with no
// history, and after the corner-to-corner search it leaves that search's
// rounds, so no batch of any width sweeps and an 8-wide batch, the corner
// among its sources, runs the rows program.
func TestMultiBFSShallowSearchKeepsRule(t *testing.T) {
	mesh := graph.Grid(40, 40)
	var arcs [][2]int
	for u := 1; u < mesh.N; u++ {
		for _, v := range mesh.Adj[mesh.Offs[u]:mesh.Offs[u+1]] {
			if v != 0 {
				arcs = append(arcs, [2]int{u, int(v)})
			}
		}
	}
	g := graph.FromArcs(mesh.N, arcs)
	rt := newRT(ppm.EngineNative, 2)
	defer rt.Close()
	ms := graph.NewMultiBFS("shallow", g, 15)
	ms.Build(rt)
	noSweep := func(after string) {
		t.Helper()
		for k := 1; k <= 15; k++ {
			if ms.Sweeps(k) {
				t.Fatalf("after %s: Sweeps(%d) = true", after, k)
			}
		}
	}
	for _, step := range []struct {
		name string
		srcs []int
	}{
		{"the corner's search", []int{0}},
		{"the far corner's search", []int{g.N - 1}},
		{"the corner's second search", []int{0}},
		{"an 8-wide batch", []int{0, 1, 2, 3, 40, 800, 820, g.N - 1}},
	} {
		if ok, err := ms.RunBatch(step.srcs); err != nil || !ok {
			t.Fatalf("%s: RunBatch = (%v, %v)", step.name, ok, err)
		}
		if err := ms.Verify(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if kinds := graph.RoundKinds(ms); slices.Contains(kinds, "sweep") {
			t.Fatalf("%s swept: rounds %v", step.name, kinds)
		}
		noSweep(step.name)
	}
}

// FuzzMultiBFS runs batches of 1 to 15 sources (one per byte of srcs, mod
// n; duplicates allowed) over a Resident holding a fuzzed multigraph
// (fuzzMultigraph: self-loops, duplicate arcs, an isolated vertex, several
// components) on the native engine at P = 1 and 2 and on the model at P = 1,
// each program forced in turn. Every row's levels must equal the
// sequential BFS, so the two programs' levels are equal bit for bit, and
// Verify must hold.
func FuzzMultiBFS(f *testing.F) {
	f.Add([]byte{}, []byte{})                                                  // three isolated vertices
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2}, []byte{0, 2, 2})                        // the path 0—1—2, a duplicate source
	f.Add([]byte{20, 1, 0, 0, 5, 5, 5, 5, 6, 5, 6, 7, 1}, []byte{0, 5, 7, 22}) // 0 isolated, a self-loop, a duplicate arc
	f.Add([]byte{45, 2, 9, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9},
		[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) // a permuted path, fifteen sources
	f.Add([]byte{30, 3, 4, 0, 1, 0, 2, 0, 3, 3, 3, 10, 11, 11, 12, 12, 10},
		[]byte{10, 0, 33, 12, 12, 1, 2, 3}) // permuted, 0 isolated, two components and the rest
	// Small runtimes keep an input's three runs cheap, but a 15-row pull
	// over a 50-vertex graph holds more model closures than the other
	// fuzz targets' 2^14-word pool (the corpus entry c01584ab8b56ec25).
	small := []ppm.Option{ppm.WithMemWords(1 << 18), ppm.WithPoolWords(1 << 16)}
	f.Fuzz(func(t *testing.T, data, srcBytes []byte) {
		g := fuzzMultigraph(data)
		srcs := []int{0}
		if len(srcBytes) > 0 {
			srcs = srcs[:0]
			for _, b := range srcBytes[:min(len(srcBytes), 15)] {
				srcs = append(srcs, int(b)%g.N)
			}
		}
		for _, cfg := range []struct {
			eng   ppm.Engine
			procs int
		}{{ppm.EngineNative, 1}, {ppm.EngineNative, 2}, {ppm.EngineModel, 1}} {
			rt := newRT(cfg.eng, cfg.procs, small...)
			res := graph.NewResident("fuzz", g, 2, 0, 1)
			res.Build(rt)
			ms := graph.NewMultiBFSResident("fuzz", res, 15)
			ms.Build(rt)
			for _, prog := range []string{"rows", "sweep"} {
				graph.NextProgram(ms, prog)
				if ok, err := ms.RunBatch(srcs); err != nil || !ok {
					t.Fatalf("%s P=%d %s: RunBatch(%v) = (%v, %v)", cfg.eng, cfg.procs, prog, srcs, ok, err)
				}
				if err := ms.Verify(); err != nil {
					t.Fatalf("%s P=%d %s, n=%d arcs %v, sources %v: %v", cfg.eng, cfg.procs, prog, g.N, g.Adj, srcs, err)
				}
				for i, src := range srcs {
					if got, want := ms.Levels(i), hostBFS(g, src); !slices.Equal(got, want) {
						t.Fatalf("%s P=%d %s, n=%d arcs %v: row %d (source %d): levels %v, want %v",
							cfg.eng, cfg.procs, prog, g.N, g.Adj, i, src, got, want)
					}
				}
			}
			rt.Close()
		}
	})
}

// TestSweepBarrierSnapshotRecovery is the power-cut oracle of ppm's
// TestBarrierSnapshotRecovery over an 8-wide swept batch: the region file
// is copied after every MS_SYNC barrier of a durable run, and each copy
// that records the run must Recover, Resume and end with every row's levels
// equal to the sequential BFS, bit for bit, and Verify green. Five barriers
// frame a run and each phase commit adds two; the root chain Seq(reset,
// seed, round) commits twice and each round Seq(sweep, round') once, the
// round that finds nothing new starting no phase: 9 + 2·sweeps barriers. A
// second phase per round would make it 9 + 4·sweeps.
func TestSweepBarrierSnapshotRecovery(t *testing.T) {
	g := graph.Rand(2048, 4096, 7)
	srcs := []int{0, 1, 2, 3, 1024, 682, 2046, 2047}
	opts := func(extra ...ppm.Option) []ppm.Option {
		return append([]ppm.Option{ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(2),
			ppm.WithSeed(42), ppm.WithMemWords(1 << 18)}, extra...)
	}
	build := func(rt *ppm.Runtime) *graph.MultiBFS {
		ms := graph.NewMultiBFS("snap", g, 8)
		ms.Build(rt)
		graph.NextProgram(ms, "sweep")
		return ms
	}
	check := func(ms *graph.MultiBFS) error {
		for i, src := range srcs {
			if got, want := ms.Levels(i), hostBFS(g, src); !slices.Equal(got, want) {
				return fmt.Errorf("row %d (source %d): levels differ from the sequential BFS", i, src)
			}
		}
		return ms.Verify()
	}

	path := filepath.Join(t.TempDir(), "sweep.region")
	dir := t.TempDir()
	var snaps []string
	durable.AfterBarrier = func(r *durable.Region) {
		if r.Path() != path {
			return // a recovered copy's own barriers
		}
		img, err := os.ReadFile(path)
		if err == nil {
			file := filepath.Join(dir, fmt.Sprintf("snap-%d.region", len(snaps)))
			if err = os.WriteFile(file, img, 0o644); err == nil {
				snaps = append(snaps, file)
			}
		}
		if err != nil {
			t.Errorf("snapshot: %v", err)
		}
	}
	defer func() { durable.AfterBarrier = nil }()
	rt := ppm.New(opts(ppm.WithNativeDurable(path))...)
	ms := build(rt)
	if ok, err := ms.RunBatch(srcs); err != nil || !ok {
		t.Fatalf("RunBatch = (%v, %v)", ok, err)
	}
	if err := check(ms); err != nil {
		t.Fatal(err)
	}
	kinds := graph.RoundKinds(ms)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	for _, k := range kinds {
		if k != "sweep" {
			t.Fatalf("rounds %v: not every round swept", kinds)
		}
		sweeps++
	}
	if want := 9 + 2*sweeps; len(snaps) != want {
		t.Fatalf("%d barriers over %d sweeps, want 9 + 2·sweeps = %d", len(snaps), sweeps, want)
	}
	t.Logf("%d sweeps, %d barrier snapshots", sweeps, len(snaps))

	// The first copy is Create's, of a region no run began on.
	for i, file := range snaps[1:] {
		rec, err := ppm.Recover(file, ppm.WithSeed(42))
		if err != nil {
			t.Fatalf("snapshot %d: Recover: %v", i+1, err)
		}
		ms2 := build(rec)
		if done, err := rec.Resume(); err != nil || !done {
			t.Fatalf("snapshot %d: Resume = (%v, %v)", i+1, done, err)
		}
		graph.ResumedBatch(ms2, srcs)
		if err := check(ms2); err != nil {
			t.Errorf("snapshot %d: %v", i+1, err)
		}
		if err := rec.Close(); err != nil {
			t.Errorf("snapshot %d: Close: %v", i+1, err)
		}
	}
}
