package ppm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/ppm"
)

// TestWARCheckCrossEngine plants the same WAR-conflicted capsules on both
// engines — a word read then rewritten, and an indexed GatherAt followed by a
// Set into a block it read — and asserts that the one WithWARCheck option
// makes both dynamic checkers flag each, naming the capsule the same way.
func TestWARCheckCrossEngine(t *testing.T) {
	engines := []ppm.Engine{ppm.EngineModel, ppm.EngineNative}
	plants := []struct {
		name string
		body func(cells ppm.Array) ppm.Func
	}{
		{"war/incr", func(cells ppm.Array) ppm.Func {
			return func(c ppm.Ctx) {
				v := c.Read(cells.At(0))
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				c.Write(cells.At(0), v+1)
				c.Halt()
			}
		}},
		{"war/gatherat", func(cells ppm.Array) ppm.Func {
			return func(c ppm.Ctx) {
				got := cells.GatherAt(c, []uint64{40, 3, 40}, nil)
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				cells.Set(c, 41, got[0]+got[1])
				c.Halt()
			}
		}},
	}
	for _, eng := range engines {
		for _, p := range plants {
			t.Run(string(eng)+"/"+p.name, func(t *testing.T) {
				rt := ppm.New(ppm.WithEngine(eng), ppm.WithWARCheck())
				defer rt.Close()
				bad := rt.Register(p.name, p.body(rt.NewArray(64)))
				rt.RunOnAll(bad)
				vs := rt.WARViolations()
				if len(vs) == 0 {
					t.Fatal("planted WAR conflict not flagged")
				}
				if !strings.Contains(vs[0], p.name) {
					t.Errorf("violation %q does not name the capsule", vs[0])
				}
				if !strings.Contains(vs[0], "write-after-read conflict") {
					t.Errorf("violation %q missing the conflict description", vs[0])
				}
			})
		}
	}
}

// TestNativeWARCheckCleanWorkload runs catalog workloads on the native
// engine with the tracker live and expects zero violations: the catalog is
// WAR-free by construction (that is what makes it replay-safe on the model
// engine), and the tracker must not manufacture false positives from the
// native memory paths (bulk ranges, gathers, scatters).
func TestNativeWARCheckCleanWorkload(t *testing.T) {
	for _, spec := range ppm.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rt := ppm.New(
				ppm.WithEngine(ppm.EngineNative),
				ppm.WithProcs(4),
				ppm.WithSeed(7),
				ppm.WithMemWords(1<<24),
				ppm.WithWARCheck(),
			)
			algo := spec.New("nwar", catalogSize(spec.Name), 13)
			algo.Build(rt)
			if !algo.Run() {
				t.Fatal("did not complete")
			}
			if err := algo.Verify(); err != nil {
				t.Fatal(err)
			}
			if vs := rt.WARViolations(); len(vs) != 0 {
				t.Fatalf("native WAR tracker flagged a catalog workload:\n%s",
					strings.Join(vs, "\n"))
			}
		})
	}
}

// TestWARCheckFoldAt: FoldAt marks a read of every block it indexes, on both
// engines' checkers, so a write into one of them is flagged on that block,
// and a write into a block it did not index is not.
func TestWARCheckFoldAt(t *testing.T) {
	for _, eng := range bothEngines {
		for _, at := range []int{41, 20} {
			rt := ppm.New(ppm.WithEngine(eng), ppm.WithWARCheck())
			cells := rt.NewArray(64)
			bad := rt.Register("war/foldat", func(c ppm.Ctx) {
				acc := c.Scratch(2)
				cells.FoldAt(c, ppm.FoldMin, []uint64{40, 3, 40}, []uint64{2, 1}, acc)
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				cells.Set(c, at, acc[0]+acc[1])
				c.Halt()
			})
			rt.RunOnAll(bad)
			vs, block := rt.WARViolations(), int(cells.At(at))/rt.BlockWords()
			rt.Close()
			if at == 20 {
				if len(vs) != 0 {
					t.Errorf("%s: a write to a block FoldAt did not read was flagged: %v", eng, vs)
				}
				continue
			}
			if len(vs) == 0 {
				t.Fatalf("%s: FoldAt then a write to a block it read was not flagged", eng)
			}
			for _, v := range vs {
				if !strings.Contains(v, fmt.Sprintf("conflict on block %d ", block)) {
					t.Errorf("%s: violation %q is not on block %d", eng, v, block)
				}
			}
		}
	}
}
