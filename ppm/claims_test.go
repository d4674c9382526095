package ppm_test

import (
	"fmt"
	"testing"

	"repro/ppm"
)

// TestCAMClaimOneOwner is Figure 2's claimOwnership capsule under Theorem
// 5.2: P processors race to CAM one owner word from 0 to their id while soft
// faults replay their capsules, and a later capsule reads the word back. One
// claim lands: the owner is one of the P ids, every processor reads that same
// owner, and no capsule has a write-after-read conflict.
func TestCAMClaimOneOwner(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, f := range []float64{0.05, 0.15} {
			t.Run(fmt.Sprintf("P=%d/f=%v", p, f), func(t *testing.T) {
				wins := make([]int, p)
				var faults int64
				for seed := uint64(1); seed <= 8; seed++ {
					o, seen, war, st := camClaim(p, f, seed)
					if o < 1 || o > uint64(p) {
						t.Fatalf("seed %d: owner %d, want a processor id in [1, %d]", seed, o, p)
					}
					for q, v := range seen {
						if v != o {
							t.Errorf("seed %d: processor %d read owner %d, the word holds %d", seed, q, v, o)
						}
					}
					if len(war) != 0 {
						t.Errorf("seed %d: WAR violations: %v", seed, war)
					}
					wins[o-1]++
					faults += st.SoftFaults
				}
				t.Logf("8 seeds: claims won per processor %v, soft faults %d", wins, faults)
			})
		}
	}
}

// camClaim runs one race of TestCAMClaimOneOwner and returns the owner word,
// what each processor read back, the WAR violations and the run's stats.
func camClaim(p int, f float64, seed uint64) (uint64, []uint64, []string, ppm.Stats) {
	rt := ppm.New(ppm.WithProcs(p), ppm.WithFaultRate(f), ppm.WithSeed(seed),
		ppm.WithPoolWords(1<<14), ppm.WithWARCheck())
	defer rt.Close()
	owner := rt.NewArray(1)
	seen := rt.NewBlockArray(p) // one block per reader
	check := rt.Register("claim/check", func(c ppm.Ctx) {
		seen.Set(c, c.Proc(), c.Read(owner.At(0)))
		c.Halt()
	})
	claim := rt.Register("claim/cam", func(c ppm.Ctx) {
		c.CAM(owner.At(0), 0, uint64(c.Proc())+1) // its result is never read
		c.Then(check.Call())
	})
	rt.RunOnAll(claim)
	return owner.Snapshot()[0], seen.Snapshot(), rt.WARViolations(), rt.Stats()
}

// TestCapsuleGranularityUnderFaults is the checkpointing tension of §2 on
// prefix sum at P = 1, where the model's counts are exact per seed: tiny
// leaves pay a capsule boundary per few words, and large ones replay more
// work on each fault. At f = 0.002 total work Wf is U-shaped in the leaf.
// The f = 0.02 rows from leaf 64 up already break the paper's f < 1/(2C)
// and still finish, but a capsule's expected attempts grow like e^{fC}: leaf
// 4096's C of 1 028 would need about 10^9, so that row is logged as not run.
func TestCapsuleGranularityUnderFaults(t *testing.T) {
	const n = 1 << 14
	in := keys(n, 1, 100)
	leaves := []int{8, 64, 512, 4096}
	for _, f := range []float64{0.002, 0.02} {
		t.Run(fmt.Sprintf("f=%v", f), func(t *testing.T) {
			var wf []int64
			for _, leaf := range leaves {
				// A leaf capsule reads and writes leaf/B blocks: C = 2·leaf/B + 4.
				if c := 2*leaf/8 + 4; f*float64(c) > 10 {
					t.Logf("leaf %d: not run, 2fC = %.0f", leaf, 2*f*float64(c))
					continue
				}
				var runs [2]ppm.Stats
				for i := range runs {
					runs[i] = prefixSumStats(t, in, leaf, f)
				}
				s := runs[0]
				if runs[1].Work != s.Work {
					t.Errorf("leaf %d: Wf %d then %d; P = 1 must repeat bit for bit", leaf, s.Work, runs[1].Work)
				}
				t.Logf("leaf %d: Wf %d, restarts %d, max C %d", leaf, s.Work, s.Restarts, s.MaxCapsWork)
				wf = append(wf, s.Work)
			}
			if f == 0.002 && !(wf[0] > wf[1] && wf[1] > wf[2] && wf[2] < wf[3]) {
				t.Errorf("Wf by leaf %v: want it falling to leaf 512 and rising at 4096", wf)
			}
		})
	}
}

// prefixSumStats runs a prefix sum over in at the given leaf on a P = 1 model
// runtime faulting at rate f, verifies it and returns its stats.
func prefixSumStats(t *testing.T, in []uint64, leaf int, f float64) ppm.Stats {
	t.Helper()
	rt := ppm.New(ppm.WithProcs(1), ppm.WithFaultRate(f), ppm.WithSeed(13), ppm.WithEphWords(1<<13))
	defer rt.Close()
	algo := ppm.PrefixSum(fmt.Sprintf("a2-%d", leaf), in, leaf)
	algo.Build(rt)
	if !algo.Run() {
		t.Fatalf("leaf %d did not complete", leaf)
	}
	if err := algo.Verify(); err != nil {
		t.Fatal(err)
	}
	return rt.Stats()
}
