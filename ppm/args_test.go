package ppm_test

import (
	"fmt"
	"testing"

	"repro/ppm"
)

// TestArgsRoundTrip sends argument lists of 0, 1, 6, 7 and 16 words — empty,
// inline, a full inline array, one word past it, well into the heap spill —
// through every control transfer, and the callee reads them back with NArgs
// and Uint. Each runtime runs the program three times, so on the native
// engine the later runs start capsules on recycled tasks that last carried a
// list of another length: a stale word or count would show. It runs on both
// engines, fault-free and under soft-fault replay.
func TestArgsRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 6, 7, 16}
	kinds := []string{"then", "fork", "forkthen", "seq", "pfor"}
	word := func(n, i int) uint64 { return uint64(1000*n + i + 1) }
	call := func(f ppm.FuncRef, n int) ppm.Call {
		args := make([]any, n)
		for i := range args {
			args[i] = word(n, i)
		}
		return f.Call(args...)
	}
	for _, eng := range bothEngines {
		rate := 0.01 // the model charges every scheduler block transfer too
		if eng == ppm.EngineNative {
			rate = 0.05 // a check capsule makes one tracked access
		}
		for _, f := range []float64{0, rate} {
			t.Run(fmt.Sprintf("%s/f=%g", eng, f), func(t *testing.T) {
				rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(2), ppm.WithSeed(17),
					ppm.WithFaultRate(f))
				defer rt.Close()
				// Kind k at size s owns slots 3(k·len(sizes)+s)+i, i < 3, one per
				// callee: 1 once it saw exactly its words, poison on a mismatch.
				const poison = 1 << 40
				out := rt.NewBlockArray(len(kinds) * len(sizes) * 3)
				check := func(slot, n int) ppm.FuncRef {
					return rt.Register(fmt.Sprintf("check/%d", slot), func(c ppm.Ctx) {
						v := uint64(1)
						if c.NArgs() != n {
							v = poison
						}
						for i := 0; i < c.NArgs() && i < n; i++ {
							if c.Uint(i) != word(n, i) {
								v = poison
							}
						}
						out.Set(c, slot, v)
						c.Done()
					})
				}
				var senders []ppm.FuncRef
				for k, kind := range kinds {
					for s, n := range sizes {
						slot := 3 * (k*len(sizes) + s)
						a, b, j := check(slot, n), check(slot+1, n), check(slot+2, n)
						var body ppm.Func
						switch kind {
						case "then":
							body = func(c ppm.Ctx) { c.Then(call(a, n)) }
						case "fork":
							body = func(c ppm.Ctx) { c.Fork(call(a, n), call(b, n)) }
						case "forkthen":
							body = func(c ppm.Ctx) { c.ForkThen(call(a, n), call(b, n), call(j, n)) }
						case "seq":
							body = func(c ppm.Ctx) { c.Seq(call(a, n), call(b, n), call(j, n)) }
						case "pfor":
							// Leaves see [lo, hi, x0, x1], the first min(n, 2)
							// words as extras and zeros after; each leaf then
							// hands the n-word list on with Then.
							var x [2]uint64
							extras := make([]any, min(n, 2))
							for i := range extras {
								x[i] = word(n, i)
								extras[i] = x[i]
							}
							leaf := rt.Register(fmt.Sprintf("leaf/%d", slot), func(c ppm.Ctx) {
								if c.NArgs() != 4 || c.Uint(2) != x[0] || c.Uint(3) != x[1] {
									out.Set(c, slot+1, poison)
								}
								c.Then(call(a, n))
							})
							body = func(c ppm.Ctx) { c.ParallelFor(leaf, 0, 4, 1, extras...) }
						}
						senders = append(senders, rt.Register(fmt.Sprintf("send/%s/%d", kind, n), body))
					}
				}
				dispatch := rt.Register("dispatch", func(c ppm.Ctx) { c.Then(senders[c.Int(0)].Call()) })
				root := rt.Register("root", func(c ppm.Ctx) { c.ParallelFor(dispatch, 0, len(senders), 1) })

				for run := 0; run < 3; run++ {
					out.Load(make([]uint64, out.Len()))
					if !rt.Run(root) {
						t.Fatalf("run %d did not complete", run)
					}
					got := out.Snapshot()
					for k, kind := range kinds {
						for s, n := range sizes {
							slot := 3 * (k*len(sizes) + s)
							want := []uint64{1, 1, 1}
							switch kind {
							case "then":
								want = []uint64{1, 0, 0}
							case "fork":
								want = []uint64{1, 1, 0}
							case "pfor":
								want = []uint64{1, 0, 0}
							}
							for i, w := range want {
								if got[slot+i] != w {
									t.Fatalf("run %d: %s with %d words: check %d = %d, want %d",
										run, kind, n, i, got[slot+i], w)
								}
							}
						}
					}
				}
				if f > 0 && rt.Stats().SoftFaults == 0 {
					t.Fatal("no soft faults injected; raise the rate")
				}
			})
		}
	}
}
