package graph_test

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

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
// must pull.
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
