package ppm_test

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"testing"

	"repro/internal/durable"
	"repro/internal/native"
	"repro/ppm"
	// Registers bfs/cc/pagerank so the kill-9 sweep covers irregular
	// workloads, not just the sort tree.
	_ "repro/ppm/graph"
)

// The kill-9 harness proves the durability tentpole end to end: a child
// process runs a catalog workload on a durable region and SIGKILLs itself at
// a randomized persistence point; the parent then reopens the file with
// ppm.Recover, replays the program's Build, Resumes, and demands the output
// be bit-exact against an uninterrupted run. The four workloads exercise
// both recovery tiers: mergesort has no root chain (whole-run restart
// replay, sound because its ping-pong merge tree is WAR-free), while bfs,
// pagerank and cc re-Seq a driver chain every round (chain resume from the
// last committed step). cc's round is the two-phase Seq(scan, check) whose
// check clears the other parity's changed flag, so a resume re-enters a
// round with one flag possibly set by the killed scan and the other stale.
// bfs has rounds of every kind, a fused Seq(step, round), a tree Seq(up,
// down, round), a pull Seq(pull, round) and a compaction Seq(compact, step,
// round), and one kill is aimed at each.

// Shared geometry: child and parent must build byte-identical programs, so
// every knob that influences registration order, allocation order, or input
// generation is pinned here.
const (
	crashProcs     = 4
	crashMemWords  = 1 << 21
	crashSeed      = 42 // runtime seed (steal victims)
	crashInputSeed = 7  // workload input seed
)

var crashWorkloads = []struct {
	name string
	n    int
}{
	{"mergesort", 1 << 13},
	// Frontiers of 1, 3 and 23 entries fit the native fuse budget, each one
	// step capsule; 160 go up and down a tree; 968, 1 593 and 129 are
	// pulled, the levels ending in level[1]; the last entry is compacted out
	// of them and pushed in one step.
	{"bfs", 2879},
	{"pagerank", 1 << 9},
	{"cc", 1 << 9},
}

func crashOpts(extra ...ppm.Option) []ppm.Option {
	return append([]ppm.Option{
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(crashProcs),
		ppm.WithSeed(crashSeed),
		ppm.WithMemWords(crashMemWords),
	}, extra...)
}

// TestCrashChild is the subprocess half of the harness: it runs a workload
// on a durable region configured to SIGKILL the process at the requested
// persistence point. It only runs when TestKill9Recovery execs the test
// binary with the PPM_CRASH_* environment set; a plain `go test` skips it.
func TestCrashChild(t *testing.T) {
	if os.Getenv("PPM_CRASH_CHILD") != "1" {
		t.Skip("subprocess entry point; driven by TestKill9Recovery")
	}
	name := os.Getenv("PPM_CRASH_NAME")
	file := os.Getenv("PPM_CRASH_FILE")
	n, _ := strconv.Atoi(os.Getenv("PPM_CRASH_N"))
	kill, _ := strconv.ParseInt(os.Getenv("PPM_CRASH_AFTER"), 10, 64)
	alg, ok := ppm.NewByName(name, "crash", n, crashInputSeed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		os.Exit(3)
	}
	native.CrashAfterPersists = kill
	rt := ppm.New(crashOpts(ppm.WithNativeDurable(file))...)
	alg.Build(rt)
	alg.Run()
	// The SIGKILL fires inside a persistence point, so reaching this line
	// means the requested crash point was past the end of the run.
	fmt.Fprintf(os.Stderr, "child survived: crash point %d never fired\n", kill)
	os.Exit(4)
}

// TestKill9Recovery is the parent half: for each workload it measures the
// uninterrupted run's output and persistence-point count, then repeatedly
// kill-9s a child at randomized points in the middle 80% of the run and
// checks that Recover + Build + Resume reproduces the uninterrupted output
// exactly and passes the workload's own Verify.
func TestKill9Recovery(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	for _, wl := range crashWorkloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			// Uninterrupted reference run, in-process, persist-counted but
			// not durable: its output is the bit-exact target and its
			// persistence-point total bounds the crash window (the count is
			// deterministic — one point per capsule, and the task tree does
			// not depend on scheduling).
			ref, _ := ppm.NewByName(wl.name, "crash", wl.n, crashInputSeed)
			rt := ppm.New(crashOpts(ppm.WithNativePersist())...)
			ref.Build(rt)
			if !ref.Run() {
				t.Fatal("reference run did not complete")
			}
			if err := ref.Verify(); err != nil {
				t.Fatal(err)
			}
			want := ref.Output()
			total := rt.PersistPoints()
			if err := rt.Close(); err != nil {
				t.Fatalf("reference Close: %v", err)
			}
			if total < 20 {
				t.Fatalf("only %d persistence points; workload too small to crash mid-run", total)
			}

			rnd := rand.New(rand.NewSource(0x9e3779b9 ^ int64(wl.n)))
			kills := make([]int64, 3)
			for rep := range kills {
				kills[rep] = total/10 + rnd.Int63n(total*8/10+1)
			}
			if wl.name == "bfs" {
				// Nearly every capsule of a search is in its wide rounds'
				// trees, where random points land; aim one kill at a fused
				// round's step, one into a tree round's claim sweep, one into
				// a pull and one into a compaction.
				kills = append(bfsRoundKills(t, wl.n), kills[0])
			}
			for rep, kill := range kills {
				file := filepath.Join(t.TempDir(), fmt.Sprintf("%s-%d.region", wl.name, rep))

				cmd := exec.Command(exe, "-test.run", "^TestCrashChild$", "-test.v")
				cmd.Env = append(os.Environ(),
					"PPM_CRASH_CHILD=1",
					"PPM_CRASH_NAME="+wl.name,
					"PPM_CRASH_FILE="+file,
					"PPM_CRASH_N="+strconv.Itoa(wl.n),
					"PPM_CRASH_AFTER="+strconv.FormatInt(kill, 10))
				out, err := cmd.CombinedOutput()
				if err == nil {
					t.Fatalf("kill at %d/%d: child was not killed:\n%s", kill, total, out)
				}
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("kill at %d/%d: child failed to start: %v", kill, total, err)
				}
				ws, ok := ee.Sys().(syscall.WaitStatus)
				if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					t.Fatalf("kill at %d/%d: child did not die by SIGKILL: %v\n%s",
						kill, total, err, out)
				}

				rec, err := ppm.Recover(file, ppm.WithSeed(crashSeed))
				if err != nil {
					t.Fatalf("kill at %d/%d: Recover: %v", kill, total, err)
				}
				alg2, _ := ppm.NewByName(wl.name, "crash", wl.n, crashInputSeed)
				alg2.Build(rec)
				done, err := rec.Resume()
				if err != nil {
					t.Fatalf("kill at %d/%d: Resume: %v", kill, total, err)
				}
				if !done {
					t.Fatalf("kill at %d/%d: Resume did not complete the run", kill, total)
				}
				if got := alg2.Output(); !slices.Equal(got, want) {
					t.Errorf("kill at %d/%d: resumed output differs from the uninterrupted run",
						kill, total)
				}
				if err := alg2.Verify(); err != nil {
					t.Errorf("kill at %d/%d: %v", kill, total, err)
				}
				if err := rec.Close(); err != nil {
					t.Errorf("kill at %d/%d: Close after resume: %v", kill, total, err)
				}
			}
		})
	}
}

// bfsRoundKind names the round a bfs root chain records by the function of
// its first step: [step, round'] is a fused round, [up, down, round'] a tree,
// [pull, round'] a pull, and [compact, step or up, …] the push after a pull,
// "compact+fused" or "compact+tree"; the root's chain is not a round's, and
// gets "". Functions are told apart by FuncID and named by the arguments
// they take: step [d, parity, cnt], up [node, lo, hi, parity], pull [node,
// lo, hi, d, cur], compact [node, lo, hi, lvl, t, cur]. fids keeps the
// FuncID each name was first seen with, so two functions cannot share one.
func bfsRoundKind(t *testing.T, fids map[string]uint64, c []durable.ChainStep) string {
	t.Helper()
	name := func(s durable.ChainStep) string {
		n := map[int]string{3: "step", 4: "up", 5: "pull", 6: "compact"}[len(s.Args)]
		if fid, seen := fids[n]; seen && fid != s.Fid {
			t.Fatalf("functions %d and %d both start a round with the arguments of %s", fid, s.Fid, n)
		}
		if n != "" {
			fids[n] = s.Fid
		}
		return n
	}
	if len(c) < 2 {
		return ""
	}
	switch name(c[0]) {
	case "step":
		return "fused"
	case "up":
		return "tree"
	case "pull":
		return "pull"
	case "compact":
		if name(c[1]) == "step" {
			return "compact+fused"
		}
		return "compact+tree"
	}
	return ""
}

// bfsRoundKills runs the bfs workload once on a durable region and reads its
// rounds off the barriers: at a phase commit every earlier capsule has passed
// its persistence point, and the recorded chain names the round
// (bfsRoundKind). It returns the persistence point of the first fused
// round's step, and one in the middle of the first tree round's up sweep, of
// the first pull and of the first compaction. The counts are the child's
// too: one point per capsule, and the task tree does not depend on
// scheduling.
func bfsRoundKills(t *testing.T, n int) []int64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rounds.region")
	var rt *ppm.Runtime
	var prev int64 // persistence points at the previous barrier
	fids := map[string]uint64{}
	kills := map[string]int64{}
	durable.AfterBarrier = func(r *durable.Region) {
		if rt == nil || r.Path() != path {
			return // Create's barrier, or another region's
		}
		pp := rt.PersistPoints()
		kind := bfsRoundKind(t, fids, r.ChainSteps())
		if kind == "compact+fused" || kind == "compact+tree" {
			kind = "compact"
		}
		if _, seen := kills[kind]; kind != "" && !seen {
			// The first barrier of a round commits its first phase. A fused
			// round's step is point pp; otherwise the round's driver is
			// point prev+1 and the phase prev+2..pp.
			kills[kind] = (prev + 2 + pp) / 2
			if kind == "fused" {
				kills[kind] = pp
			}
		}
		prev = pp
	}
	defer func() { durable.AfterBarrier = nil }()
	alg, _ := ppm.NewByName("bfs", "crash", n, crashInputSeed)
	rt = ppm.New(crashOpts(ppm.WithNativeDurable(path))...)
	alg.Build(rt)
	if !alg.Run() {
		t.Fatal("round-structure run did not complete")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, kind := range []string{"fused", "tree", "pull", "compact"} {
		pp, ok := kills[kind]
		if !ok {
			t.Fatalf("bfs at n=%d: rounds %v: the run needs a %s round", n, kills, kind)
		}
		out = append(out, pp)
	}
	t.Logf("first phase of each kind of round at persistence points %v", kills)
	return out
}

// TestDurableCloseLifecycle covers the clean-shutdown side of durability:
// Close flushes and unmaps exactly once (a second Close is a safe no-op),
// and Recover on a cleanly closed file reports a completed run immediately —
// Resume replays nothing and the persisted output is readable as-is.
func TestDurableCloseLifecycle(t *testing.T) {
	file := filepath.Join(t.TempDir(), "clean.region")
	alg, _ := ppm.NewByName("mergesort", "clean", 1<<11, crashInputSeed)
	rt := ppm.New(crashOpts(ppm.WithNativeDurable(file))...)
	alg.Build(rt)
	if !alg.Run() {
		t.Fatal("durable run did not complete")
	}
	want := alg.Output()
	pp := rt.PersistPoints()
	if pp == 0 {
		t.Fatal("durable run recorded no persistence points")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close should be a safe no-op, got %v", err)
	}
	if _, err := rt.TryRun(ppm.FuncRef{}); err != ppm.ErrRuntimeClosed {
		t.Fatalf("TryRun after Close = %v, want ErrRuntimeClosed", err)
	}

	rec, err := ppm.Recover(file, ppm.WithSeed(crashSeed))
	if err != nil {
		t.Fatalf("Recover on cleanly closed file: %v", err)
	}
	alg2, _ := ppm.NewByName("mergesort", "clean", 1<<11, crashInputSeed)
	alg2.Build(rec)
	done, err := rec.Resume()
	if err != nil || !done {
		t.Fatalf("Resume on completed region = (%v, %v), want (true, nil)", done, err)
	}
	if got := rec.Stats().Capsules; got != 0 {
		t.Errorf("Resume on completed region replayed %d capsules, want 0", got)
	}
	if got := alg2.Output(); !slices.Equal(got, want) {
		t.Error("recovered output differs from the run that wrote it")
	}
	if err := alg2.Verify(); err != nil {
		t.Error(err)
	}
	// Resume is idempotent on a completed region.
	if done, err := rec.Resume(); err != nil || !done {
		t.Fatalf("second Resume = (%v, %v), want (true, nil)", done, err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close recovered runtime: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("double Close on recovered runtime: %v", err)
	}
}

// TestRecoverErrors pins the refusal paths: a missing file, a file that
// never ran, and Resume on a runtime that did not come from Recover.
func TestRecoverErrors(t *testing.T) {
	if _, err := ppm.Recover(filepath.Join(t.TempDir(), "absent.region")); err == nil {
		t.Error("Recover on a missing file should fail")
	}

	// A region that was created but never ran records nothing to resume.
	file := filepath.Join(t.TempDir(), "unused.region")
	rt := ppm.New(crashOpts(ppm.WithNativeDurable(file))...)
	rt.Register("noop", func(c ppm.Ctx) { c.Done() })
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ppm.Recover(file); err == nil {
		t.Error("Recover on a never-run region should fail")
	}

	plain := ppm.New(ppm.WithEngine(ppm.EngineNative))
	defer plain.Close()
	if _, err := plain.Resume(); err == nil {
		t.Error("Resume on a non-recovered runtime should fail")
	}
}

// TestRecoverRegistrationMismatch checks the program-signature guard: a
// recovered runtime whose registrations differ from the persisted run's must
// be refused at Resume — FuncIDs are positional, so resuming would aim
// recorded closures at the wrong bodies. A child is kill-9'd mid-run to
// leave a resumable region, then the parent rebuilds with one extra capsule
// registered ahead of the program, shifting every FuncID.
func TestRecoverRegistrationMismatch(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	file := filepath.Join(t.TempDir(), "mismatch.region")
	cmd := exec.Command(exe, "-test.run", "^TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"PPM_CRASH_CHILD=1",
		"PPM_CRASH_NAME=mergesort",
		"PPM_CRASH_FILE="+file,
		"PPM_CRASH_N="+strconv.Itoa(1<<13),
		"PPM_CRASH_AFTER=10")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("child was not killed:\n%s", out)
	}

	rec, err := ppm.Recover(file, ppm.WithSeed(crashSeed))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	rec.Register("sig/intruder", func(c ppm.Ctx) { c.Done() })
	alg2, _ := ppm.NewByName("mergesort", "crash", 1<<13, crashInputSeed)
	alg2.Build(rec)
	if _, err := rec.Resume(); err == nil {
		t.Fatal("Resume with a shifted registration table should be refused")
	}
}

// TestNativeFaultReplay checks the replay-based soft-fault emulation on the
// native engine: under a nonzero fault rate the workload still verifies, the
// injected faults are counted, and every fault produced exactly one capsule
// replay (the abort-and-retry loop's accounting).
func TestNativeFaultReplay(t *testing.T) {
	rt := ppm.New(
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(4),
		ppm.WithSeed(13),
		ppm.WithFaultRate(2e-4))
	defer rt.Close()
	alg, _ := ppm.NewByName("mergesort", "fault", 1<<12, 5)
	alg.Build(rt)
	if !alg.Run() {
		t.Fatal("did not complete")
	}
	if err := alg.Verify(); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.SoftFaults == 0 {
		t.Fatal("fault rate 2e-4 injected no faults; raise the rate or the size")
	}
	if s.Restarts != s.SoftFaults {
		t.Errorf("Restarts = %d, want %d (one replay per injected fault)",
			s.Restarts, s.SoftFaults)
	}
	if s.Capsules == 0 {
		t.Error("no capsules counted")
	}
}
