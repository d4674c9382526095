package ppm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// leafCase is one input of TestLeafKernels: radixSort sorts a ++ b, and
// seqMerge merges a and b after each is sorted.
type leafCase struct {
	name string
	a, b []uint64
}

func leafCases() []leafCase {
	x := rng.NewXoshiro256(17)
	random := func(n int, mod uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = x.Next()
			if mod != 0 {
				out[i] %= mod
			}
		}
		return out
	}
	ramp := func(lo, hi, step int) []uint64 {
		var out []uint64
		for v := lo; v != hi; v += step {
			out = append(out, uint64(v))
		}
		return out
	}
	topByte := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = x.Next()>>56<<56 | 0x0123456789ab
		}
		return out
	}
	same := func(v uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	// Runs of 50 copies of each value, the last run of a and the first of b
	// the same value, so ties straddle the merge boundary.
	runs := func(from, to int) []uint64 {
		var out []uint64
		for v := from; v <= to; v++ {
			for range 50 {
				out = append(out, uint64(v))
			}
		}
		return out
	}
	return []leafCase{
		{"empty", nil, nil},
		{"one/a", []uint64{42}, nil},
		{"one/b", nil, []uint64{42}},
		{"equal", same(7, 300), same(7, 200)},
		{"sorted", ramp(0, 500, 1), ramp(500, 1000, 1)},
		{"reversed", ramp(999, 499, -1), ramp(499, -1, -1)},
		{"topbyte", topByte(700), topByte(324)},
		{"random64", random(1024, 0), random(1000, 0)},
		{"random64/small", random(40, 0), random(23, 0)},
		{"keys1e6", random(1024, 1_000_000), random(1024, 1_000_000)},
		{"dups", runs(0, 9), runs(9, 15)},
	}
}

// TestLeafKernels checks the Section 7 leaf kernels against the sequential
// references, each run inside a capsule on both engines: radixSort against
// slices.Sort and seqMerge against mergeRef. The soft rows run the same
// capsules at the highest fault rate the engine's tests use (the largest
// capsule, 2 048 keys in and out, stays under f < 1/(2C)), so some of them
// replay from a lost ephemeral memory.
func TestLeafKernels(t *testing.T) {
	for _, eng := range []Engine{EngineModel, EngineNative} {
		for _, f := range []float64{0, 1e-4} {
			rate := f
			if eng == EngineModel {
				rate *= 10 // the model counts block transfers, B words each
			}
			t.Run(fmt.Sprintf("%s/f=%g", eng, rate), func(t *testing.T) {
				rt := New(WithEngine(eng), WithProcs(1), WithSeed(9), WithFaultRate(rate))
				defer rt.Close()
				for _, lc := range leafCases() {
					checkLeafKernels(t, rt, lc)
				}
				if f == 0 {
					return
				}
				s := rt.Stats()
				t.Logf("%d soft faults", s.SoftFaults)
				if s.SoftFaults == 0 {
					t.Error("no soft faults drawn; the rows did not exercise replay")
				}
			})
		}
	}
}

// checkLeafKernels runs one case's two capsules on rt and compares their
// outputs with the references.
func checkLeafKernels(t *testing.T, rt *Runtime, lc leafCase) {
	t.Helper()
	all := slices.Concat(lc.a, lc.b)
	n := len(all)
	sa, sb := sortRef(lc.a), sortRef(lc.b)
	in, out := rt.NewArray(n), rt.NewArray(n)
	in.Load(all)
	A, B := rt.NewArray(len(sa)), rt.NewArray(len(sb))
	A.Load(sa)
	B.Load(sb)
	merged := rt.NewArray(n)

	sortLeaf := rt.Register("leaf/radix/"+lc.name, func(c Ctx) {
		vals := in.Slice(c, 0, n)
		radixSort(c, vals)
		out.SetRange(c, 0, vals)
		c.Done()
	})
	mergeLeaf := rt.Register("leaf/merge/"+lc.name, func(c Ctx) {
		merged.SetRange(c, 0, seqMerge(c, A.Slice(c, 0, len(sa)), B.Slice(c, 0, len(sb))))
		c.Done()
	})
	for _, k := range []struct {
		kernel string
		root   FuncRef
		got    Array
		want   []uint64
	}{
		{"radixSort", sortLeaf, out, sortRef(all)},
		{"seqMerge", mergeLeaf, merged, mergeRef(sa, sb)},
	} {
		if !rt.Run(k.root) {
			t.Fatalf("%s/%s did not complete", k.kernel, lc.name)
		}
		if err := verifyWords(k.kernel+"/"+lc.name, k.got.Snapshot(), k.want); err != nil {
			t.Error(err)
		}
	}
}
