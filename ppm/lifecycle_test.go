package ppm

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// busyWork registers a parallel-for heavy enough that a concurrent TryRun
// attempt reliably lands while the first run is in flight, yet light enough
// (spin iterations, not size) to keep the suite fast on small machines.
func busyWork(rt *Runtime, n, spin int) (FuncRef, Array) {
	out := rt.NewArray(n)
	leaf := rt.Register("busy/leaf", func(c Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		vals := make([]uint64, hi-lo)
		for i := range vals {
			acc := uint64(lo + i)
			for k := 0; k < spin; k++ {
				acc = acc*6364136223846793005 + 1442695040888963407
			}
			vals[i] = acc
		}
		out.SetRange(c, lo, vals)
		c.Done()
	})
	root := rt.Register("busy/root", func(c Ctx) {
		c.ParallelFor(leaf, 0, n, 8)
	})
	return root, out
}

func TestConcurrentRunReturnsBusy(t *testing.T) {
	for _, eng := range []Engine{EngineModel, EngineNative} {
		t.Run(string(eng), func(t *testing.T) {
			rt := New(WithEngine(eng), WithProcs(2), WithMemWords(1<<22), WithPoolWords(1<<20))
			defer rt.Close()
			n := 1 << 12
			if eng == EngineModel {
				n = 256 // every capsule is simulated; keep the model subtest cheap
			}
			root, _ := busyWork(rt, n, 200)

			started := make(chan struct{})
			var busy atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				close(started)
				ok, err := rt.TryRun(root)
				if err != nil {
					// The main goroutine's run won the race; ours must have
					// been refused with the defined error.
					if !errors.Is(err, ErrRuntimeBusy) {
						t.Errorf("TryRun error = %v, want ErrRuntimeBusy", err)
					}
					busy.Add(1)
					return
				}
				if !ok {
					t.Error("TryRun completed but reported failure")
				}
			}()
			<-started
			for i := 0; i < 16; i++ {
				ok, err := rt.TryRun(root)
				if err != nil {
					if !errors.Is(err, ErrRuntimeBusy) {
						t.Fatalf("TryRun error = %v, want ErrRuntimeBusy", err)
					}
					busy.Add(1)
					continue
				}
				if !ok {
					t.Fatal("TryRun completed but reported failure")
				}
			}
			wg.Wait()
			// With 17 attempts racing one long run, at least one overlap must
			// have been refused — and refusal must not have corrupted the
			// runtime: a final solo run still works.
			if busy.Load() == 0 {
				t.Skip("no overlap provoked on this machine; nothing to assert")
			}
			if ok, err := rt.TryRun(root); err != nil || !ok {
				t.Fatalf("runtime unusable after busy refusals: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestCloseWhileRunning(t *testing.T) {
	rt := New(WithEngine(EngineNative), WithProcs(4), WithMemWords(1<<22))
	root, out := busyWork(rt, 1<<12, 500)

	runDone := make(chan bool, 1)
	background := func() {
		for {
			ok, err := rt.TryRun(root)
			if errors.Is(err, ErrRuntimeBusy) {
				continue // a probe below won the lock; retry until admitted
			}
			if err != nil {
				t.Errorf("run refused: %v", err)
			}
			runDone <- ok
			return
		}
	}
	go background()
	// Close must block until the in-flight run completes, then shut down.
	// Spin until a probe observes ErrRuntimeBusy: TryRun is synchronous, so a
	// busy refusal here proves the background run holds the engine right now.
	// On a loaded machine the background run can start and finish while this
	// goroutine is descheduled; then no probe could ever see it in flight, so
	// start another.
	for {
		select {
		case <-runDone:
			go background()
		default:
		}
		if _, err := rt.TryRun(root); errors.Is(err, ErrRuntimeBusy) {
			break
		}
		runtime.Gosched()
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ok := <-runDone; !ok {
		t.Fatal("in-flight run did not complete before Close returned")
	}
	if _, err := rt.TryRun(root); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("TryRun after Close = %v, want ErrRuntimeClosed", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The region is released: harness-side reads must fail loudly, not
	// silently return stale words.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Snapshot after Close did not panic")
			}
		}()
		out.Snapshot()
	}()
}

func TestRuntimeReuseAcrossRuns(t *testing.T) {
	// The serving pattern: one native runtime, one built program, many runs.
	// Workers must park and re-arm cleanly, and results must stay correct.
	rt := New(WithEngine(EngineNative), WithProcs(4), WithMemWords(1<<22))
	defer rt.Close()
	const n = 1 << 10
	root, out := busyWork(rt, n, 100)
	var want []uint64
	for rep := 0; rep < 20; rep++ {
		if ok, err := rt.TryRun(root); err != nil || !ok {
			t.Fatalf("rep %d: ok=%v err=%v", rep, ok, err)
		}
		got := out.Snapshot()
		if rep == 0 {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: out[%d] = %d, want %d", rep, i, got[i], want[i])
			}
		}
	}
}

// TestModelRerunAfterSteals re-runs a model runtime many times after runs
// whose threads were stolen. A finished run leaves its tags and states in
// the deque entry words; unless the scheduler clears them when it starts the
// next root, a thread stolen in a later run fails to claim its receiving
// entry and re-pushes until the closure pool is exhausted (or forever).
// Processors are goroutines, so whether a run steals at all depends on the
// host's scheduling: the test runs until one has, then re-runs 24 times.
func TestModelRerunAfterSteals(t *testing.T) {
	rt := New(WithProcs(2), WithMemWords(1<<22), WithPoolWords(1<<20))
	defer rt.Close()
	root, out := busyWork(rt, 256, 50)
	var want []uint64
	for rep, after := 0, 0; after < 24; rep++ {
		if rt.Stats().Steals > 0 {
			after++
		} else if rep == 1000 {
			t.Fatal("no steal in 1000 runs of a two-processor runtime")
		}
		done := make(chan bool, 1) // the run's one result, so a late run can still finish
		go func() { done <- rt.Run(root) }()
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("rep %d: did not complete", rep)
			}
		case <-time.After(time.Minute):
			t.Fatalf("rep %d: run hung", rep)
		}
		got := out.Snapshot()
		if rep == 0 {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: out[%d] = %d, want %d", rep, i, got[i], want[i])
			}
		}
	}
}

func TestModelRerunFreshResults(t *testing.T) {
	// The model machine supports serialized re-runs: ResetRun zeroes the
	// dirtied pool words between runs, so run 2's join cells are fresh and
	// its capsules read re-staged inputs, not run 1's leftovers.
	rt := New(WithProcs(2), WithMemWords(1<<22), WithPoolWords(1<<20))
	defer rt.Close()
	const n = 64
	in := rt.NewArray(n)
	out := rt.NewArray(n)
	leaf := rt.Register("rerun/leaf", func(c Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		vals := make([]uint64, hi-lo)
		for i := range vals {
			vals[i] = in.Get(c, lo+i) * 2
		}
		out.SetRange(c, lo, vals)
		c.Done()
	})
	root := rt.Register("rerun/root", func(c Ctx) {
		c.ParallelFor(leaf, 0, n, 8)
	})
	for rep := 1; rep <= 3; rep++ {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rep*1000 + i)
		}
		in.Load(vals)
		if ok, err := rt.TryRun(root); err != nil || !ok {
			t.Fatalf("rep %d: ok=%v err=%v", rep, ok, err)
		}
		got := out.Snapshot()
		for i := range vals {
			if got[i] != 2*vals[i] {
				t.Fatalf("rep %d: out[%d] = %d, want %d", rep, i, got[i], 2*vals[i])
			}
		}
	}
}

func TestModelRerunRefusedAfterHardFault(t *testing.T) {
	// A hard-faulted processor never restarts; a re-run on such a machine
	// would strand work, so TryRun refuses it with a defined error. Proc 0
	// is the one killed: it starts the root thread, so it always reaches its
	// 50th access, where an idle proc 1 may finish the run without dying.
	rt := New(WithProcs(2), WithHardFault(0, 50), WithMemWords(1<<22), WithPoolWords(1<<20))
	defer rt.Close()
	root, _ := busyWork(rt, 512, 50)
	if ok, err := rt.TryRun(root); err != nil || !ok {
		t.Fatalf("first run (P=2, one death): ok=%v err=%v", ok, err)
	}
	if _, err := rt.TryRun(root); !errors.Is(err, ErrRuntimeDead) {
		t.Fatalf("re-run after hard fault = %v, want ErrRuntimeDead", err)
	}
}

func TestModelCloseLatches(t *testing.T) {
	rt := New(WithProcs(1), WithMemWords(1<<20), WithPoolWords(1<<16))
	root, _ := busyWork(rt, 64, 50)
	if ok, err := rt.TryRun(root); err != nil || !ok {
		t.Fatalf("model run: ok=%v err=%v", ok, err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := rt.TryRun(root); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("TryRun after Close = %v, want ErrRuntimeClosed", err)
	}
}

// TestUnsupportedOptionRefused: an option the selected engine cannot honour
// is refused with ErrUnsupportedOption, by a panic from New or an error from
// Recover, and before New creates a region file. The simulator-sizing
// options stay accepted on the native engine, which ignores them.
func TestUnsupportedOptionRefused(t *testing.T) {
	dir := t.TempDir()
	native := WithEngine(EngineNative)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"native/WithHardFault", []Option{native, WithProcs(2), WithHardFault(1, 10)}},
		{"native/WithSoftFaultAt", []Option{native, WithSoftFaultAt(0, 10)}},
		{"native/both", []Option{native, WithSoftFaultAt(0, 10), WithHardFault(0, 20)}},
		{"model/WithNativePersist", []Option{WithNativePersist()}},
		{"model/WithNativeDurable", []Option{WithEngine(EngineModel), WithNativeDurable(filepath.Join(dir, "model.region"))}},
	} {
		t.Run("New/"+tc.name, func(t *testing.T) {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrUnsupportedOption) {
					t.Fatalf("New panicked with %v, want ErrUnsupportedOption", err)
				}
			}()
			New(tc.opts...).Close()
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "model.region")); !os.IsNotExist(err) {
		t.Errorf("refused WithNativeDurable left a region file (stat: %v)", err)
	}

	path := filepath.Join(dir, "native.region")
	rt := New(native, WithProcs(2), WithNativeDurable(path))
	root, _ := busyWork(rt, 64, 1)
	if ok, err := rt.TryRun(root); err != nil || !ok {
		t.Fatalf("durable run: ok=%v err=%v", ok, err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"WithHardFault", []Option{WithHardFault(0, 10)}},
		{"WithSoftFaultAt", []Option{WithSoftFaultAt(1, 10)}},
		{"WithEngine(model)", []Option{WithEngine(EngineModel)}},
	} {
		if rec, err := Recover(path, tc.opts...); !errors.Is(err, ErrUnsupportedOption) {
			if rec != nil {
				rec.Close()
			}
			t.Errorf("Recover with %s = %v, want ErrUnsupportedOption", tc.name, err)
		}
	}
	rec, err := Recover(path, WithSeed(3))
	if err != nil {
		t.Fatalf("Recover with portable options: %v", err)
	}
	rec.Close()

	// Accepted and ignored: the same program computes the same words and
	// counts the same accesses with or without the simulator sizes.
	run := func(opts ...Option) ([]uint64, Stats) {
		rt := New(append([]Option{native, WithProcs(1), WithSeed(5)}, opts...)...)
		defer rt.Close()
		root, out := busyWork(rt, 256, 3)
		if ok, err := rt.TryRun(root); err != nil || !ok {
			t.Fatalf("native run: ok=%v err=%v", ok, err)
		}
		return out.Snapshot(), rt.Stats()
	}
	wantOut, wantStats := run()
	gotOut, gotStats := run(WithEphWords(1<<13), WithPoolWords(1<<12))
	if len(gotOut) != len(wantOut) {
		t.Fatalf("output length %d, want %d", len(gotOut), len(wantOut))
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("out[%d] = %d with WithEphWords/WithPoolWords, want %d", i, gotOut[i], wantOut[i])
		}
	}
	if gotStats.Reads != wantStats.Reads || gotStats.Writes != wantStats.Writes || gotStats.Capsules != wantStats.Capsules {
		t.Errorf("stats with WithEphWords/WithPoolWords = %+v, want %+v", gotStats, wantStats)
	}
}
