package serve

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/native"
	"repro/ppm/graph"
)

// The serve-layer chaos harness proves the mutation tentpole end to end: a
// child process runs a real Server over a DurableDir, drives a deterministic
// warmup-query-then-mutation-batches sequence, and SIGKILLs itself at a
// persistence point chosen to land inside one batch's apply program. The
// parent then recovers the region in a fresh Server (RecoverResident →
// ppm.Recover + rebuild + Resume), checks the graph landed exactly on the
// interrupted batch's committed epoch, and demands every query answer be
// bit-exact against host references computed on the mutated graph — i.e.
// identical to what an uninterrupted server would have answered.

const chaosBatches = 4

// chaosConfig pins every knob that shapes registration order, allocation
// order, and persist-point counts: the child, the recovery server, and the
// in-process reference must be byte-identical programs.
func chaosConfig(dir string) Config {
	cfg := Default()
	cfg.Procs = 2
	cfg.MemWords = 1 << 21
	cfg.MaxBatch = 4
	cfg.PageRankIters = 3
	cfg.EpochSlots = 2
	cfg.MutBatchCap = 64
	cfg.DefaultDeadline = 30 * time.Second
	cfg.DurableDir = dir
	return cfg
}

func chaosSpec(seed uint64) GraphSpec {
	return GraphSpec{Kind: "rand", N: 200, M: 400, Seed: seed}
}

// driveChaosOps runs the deterministic op sequence: one warmup BFS (builds
// the entry, proves reads persist too), then chaosBatches mutation batches.
// It returns the cumulative persist-point count after the warmup and after
// each batch — the windows the parent aims its kill points into.
func driveChaosOps(s *Server, spec GraphSpec, host *graph.Graph) ([]int64, error) {
	marks := make([]int64, 0, chaosBatches+1)
	if _, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 0}); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	marks = append(marks, s.Stats().PersistPoints[spec.Key()])
	g := host
	for round := 1; round <= chaosBatches; round++ {
		b := mkBatch(g, spec.Seed, round)
		if _, err := s.Mutate(Mutation{Graph: spec, Insert: b.Insert, Delete: b.Delete}); err != nil {
			return nil, fmt.Errorf("batch %d: %w", round, err)
		}
		var err error
		g, err = b.ApplyTo(g)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", round, err)
		}
		marks = append(marks, s.Stats().PersistPoints[spec.Key()])
	}
	return marks, nil
}

// chaosMirror advances the host graph through the first `rounds` batches.
func chaosMirror(t *testing.T, host *graph.Graph, seed uint64, rounds int) *graph.Graph {
	t.Helper()
	g := host
	for round := 1; round <= rounds; round++ {
		next, err := mkBatch(g, seed, round).ApplyTo(g)
		if err != nil {
			t.Fatalf("mirror batch %d: %v", round, err)
		}
		g = next
	}
	return g
}

// TestServeCrashChild is the subprocess half of the harness: it serves the
// chaos op sequence on a durable dir with the runtime configured to SIGKILL
// the process at the requested persistence point. It only runs when
// TestServeKill9MutationRecovery execs the test binary with the
// PPM_SERVE_CRASH_* environment set; a plain `go test` skips it.
func TestServeCrashChild(t *testing.T) {
	if os.Getenv("PPM_SERVE_CRASH_CHILD") != "1" {
		t.Skip("subprocess entry point; driven by TestServeKill9MutationRecovery")
	}
	dir := os.Getenv("PPM_SERVE_CRASH_DIR")
	seed, _ := strconv.ParseUint(os.Getenv("PPM_SERVE_CRASH_SEED"), 10, 64)
	kill, _ := strconv.ParseInt(os.Getenv("PPM_SERVE_CRASH_AFTER"), 10, 64)
	cfg := chaosConfig(dir)
	spec := chaosSpec(seed)
	host, err := graph.Generate(spec.Kind, spec.N, spec.M, spec.Seed^cfg.Seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "generate: %v\n", err)
		os.Exit(3)
	}
	native.CrashAfterPersists = kill
	s := New(cfg)
	if _, err := driveChaosOps(s, spec, host); err != nil {
		// Dying mid-batch surfaces as SIGKILL, never as an error return; any
		// error here means the harness itself is broken.
		fmt.Fprintf(os.Stderr, "chaos ops: %v\n", err)
		os.Exit(3)
	}
	// The SIGKILL fires inside a persistence point, so reaching this line
	// means the requested crash point was past the end of the sequence.
	fmt.Fprintf(os.Stderr, "child survived: crash point %d never fired\n", kill)
	os.Exit(4)
}

// TestServeKill9MutationRecovery is the parent half: for three seeds it maps
// each mutation batch's persist-point window with an uninterrupted in-process
// run, kill-9s a child mid-batch, recovers the region into a fresh Server,
// and checks (a) the epoch equals the interrupted batch's — Resume completed
// the batch's un-committed tail — and (b) bfs/cc/pagerank answers are
// bit-exact against host references on the mutated graph.
func TestServeKill9MutationRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-9 harness")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	for _, seed := range []uint64{31, 32, 33} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := chaosSpec(seed)
			refDir := filepath.Join(t.TempDir(), "ref-regions")
			cfg := chaosConfig(refDir)
			host, err := graph.Generate(spec.Kind, spec.N, spec.M, spec.Seed^cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}

			// Uninterrupted reference run: maps the persist-point windows and
			// proves the sequence completes. Persist counts are deterministic
			// (one point per capsule; the task tree does not depend on
			// scheduling), so the child hits the same windows.
			ref := New(cfg)
			marks, err := driveChaosOps(ref, spec, host)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			ref.Close()

			// Kill inside batch bi's window (middle of the window, so neither
			// the previous commit nor the batch's own final sync has fired).
			bi := 1 + int(seed)%chaosBatches
			lo, hi := marks[bi-1], marks[bi]
			if hi-lo < 4 {
				t.Fatalf("batch %d window [%d,%d) too narrow to target", bi, lo, hi)
			}
			kill := lo + (hi-lo)/2

			childDir := filepath.Join(t.TempDir(), "regions")
			cmd := exec.Command(exe, "-test.run", "^TestServeCrashChild$", "-test.v")
			cmd.Env = append(os.Environ(),
				"PPM_SERVE_CRASH_CHILD=1",
				"PPM_SERVE_CRASH_DIR="+childDir,
				"PPM_SERVE_CRASH_SEED="+strconv.FormatUint(seed, 10),
				"PPM_SERVE_CRASH_AFTER="+strconv.FormatInt(kill, 10))
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("kill at %d (batch %d): child was not killed:\n%s", kill, bi, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("kill at %d: child failed to start: %v", kill, err)
			}
			ws, ok := ee.Sys().(syscall.WaitStatus)
			if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("kill at %d: child did not die by SIGKILL: %v\n%s", kill, err, out)
			}

			// Recover in a fresh server over the surviving region. Resume
			// replays the interrupted batch's un-committed tail, so the graph
			// lands on epoch bi with batches 1..bi applied.
			rec := New(chaosConfig(childDir))
			defer rec.Close()
			if n := rec.RecoverResident(); n != 1 {
				t.Fatalf("RecoverResident = %d, want 1", n)
			}
			if !rec.Ready() {
				t.Fatal("recovered server not ready")
			}
			st := rec.Stats()
			if got := st.Epochs[spec.Key()]; got != uint64(bi) {
				t.Fatalf("recovered epoch = %d, want %d (kill at %d in window [%d,%d))",
					got, bi, kill, lo, hi)
			}

			// Bit-exact answers vs the uninterrupted run's state: host
			// references on the graph advanced through batches 1..bi.
			mirror := chaosMirror(t, host, seed, bi)
			for _, src := range []int{0, 7, 42} {
				r, err := rec.Submit(Query{Graph: spec, Kind: "bfs", Source: src})
				if err != nil {
					t.Fatalf("recovered bfs %d: %v", src, err)
				}
				if r.Epoch != uint64(bi) || r.Checksum != refBFSChecksum(mirror, src) {
					t.Fatalf("recovered bfs %d = %+v, want epoch %d checksum %d",
						src, r, bi, refBFSChecksum(mirror, src))
				}
			}
			c, err := rec.Submit(Query{Graph: spec, Kind: "cc"})
			if err != nil {
				t.Fatalf("recovered cc: %v", err)
			}
			wantComp, wantSum := refCC(mirror)
			if c.Extra != wantComp || c.Checksum != wantSum {
				t.Fatalf("recovered cc = %+v, want %d components checksum %d", c, wantComp, wantSum)
			}
			p, err := rec.Submit(Query{Graph: spec, Kind: "pagerank"})
			if err != nil {
				t.Fatalf("recovered pagerank: %v", err)
			}
			if want := refPRChecksum(mirror, chaosConfig("").PageRankIters); p.Checksum != want {
				t.Fatalf("recovered pagerank checksum %d, want %d", p.Checksum, want)
			}

			// And the recovered graph keeps serving writes: the next batch in
			// the sequence commits on top of the recovered epoch.
			nb := mkBatch(mirror, seed, bi+1)
			mr, err := rec.Mutate(Mutation{Graph: spec, Insert: nb.Insert, Delete: nb.Delete})
			if err != nil {
				t.Fatalf("post-recovery mutate: %v", err)
			}
			if mr.Epoch != uint64(bi+1) {
				t.Fatalf("post-recovery mutate epoch = %d, want %d", mr.Epoch, bi+1)
			}
		})
	}
}
