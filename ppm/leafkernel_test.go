package ppm

import (
	"bytes"
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
	// Keys that differ only under mask: radixSort makes one pass per byte
	// position the mask touches, so odd and even counts end in either of
	// its two scratch buffers.
	masked := func(n int, mask uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = 0x0123456789abcdef&^mask | x.Next()&mask
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
		{"random64", random(1024, 0), random(1000, 0)},
		{"random64/small", random(40, 0), random(23, 0)},
		{"keys1e6", random(1024, 1_000_000), random(1024, 1_000_000)},
		{"dups", runs(0, 9), runs(9, 15)},
		// seqMerge fills from both ends: odd and even totals meet on one
		// slot or between two, a lone key meets the other side anywhere,
		// and equal maxima tie at the back end.
		{"total/odd", random(5, 8), random(4, 8)},
		{"total/even", random(5, 8), random(5, 8)},
		{"equal/odd", same(7, 301), same(7, 200)},
		{"1v1000/min", ramp(0, 1000, 1), []uint64{0}},
		{"1v1000/mid", []uint64{500}, ramp(0, 1000, 1)},
		{"1v1000/max", []uint64{5000}, ramp(0, 1000, 1)},
		{"tiedmax", append(random(300, 1000), 1000, 1000), append(random(200, 1000), 1000)},
		// radixSort's passes over varying bytes only.
		{"bytes/0", masked(600, 0xff), masked(424, 0xff)},
		{"bytes/1+6", masked(600, 0xff<<8|0xff<<48), masked(424, 0xff<<8|0xff<<48)},
		{"bytes/0+3+7", masked(600, 0xff|0xff<<24|0xff<<56), masked(424, 0xff|0xff<<24|0xff<<56)},
		{"bytes/7", masked(700, 0xff<<56), masked(324, 0xff<<56)},
		{"bits/7+63", masked(600, 1<<7|1<<63), masked(424, 1<<7|1<<63)},
	}
}

// TestLeafKernels checks the Section 7 leaf kernels against the sequential
// references, each run inside a capsule on both engines: radixSort against
// slices.Sort and seqMerge against mergeRef. Their inputs are Slices, views
// of persistent memory on the native engine, so the source arrays must read
// the same afterwards: a kernel that writes its input fails here. The soft rows run the same
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
		out.SetRange(c, 0, radixSort(c, in.Slice(c, 0, n)))
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
	if err := sourcesUnchanged([]Array{in, A, B}, [][]uint64{all, sa, sb}); err != nil {
		t.Errorf("%s: %v", lc.name, err)
	}
}

// sourcesUnchanged reports the first of srcs whose leading words no longer
// read as the matching want: the aliasing guard of the leaf-kernel tests.
func sourcesUnchanged(srcs []Array, want [][]uint64) error {
	for i, src := range srcs {
		if err := verifyWords(fmt.Sprintf("source %d", i), src.SnapshotRange(0, len(want[i])), want[i]); err != nil {
			return fmt.Errorf("a kernel wrote through its input view: %w", err)
		}
	}
	return nil
}

// fuzzMaxKeys caps the keys one fuzz input decodes to: two merge leaves'
// worth, the most a leaf kernel sees in the Section 7 programs.
const fuzzMaxKeys = 2048

// fuzzKeys decodes a fuzz input into two key slices. data[0] sets the share
// of keys that go to a; data[1] sets the key width w (1–8 bytes) and the byte
// position the key starts at; every following w bytes are one little-endian
// key shifted there. Narrow keys repeat often, so ties are common, and the
// shift moves the varying bytes to every position radixSort may pass over.
func fuzzKeys(data []byte) (a, b []uint64) {
	if len(data) < 2 {
		return nil, nil
	}
	w := int(data[1]%8) + 1
	shift := int(data[1]/8) % (9 - w)
	body := data[2:]
	keys := make([]uint64, min(len(body)/w, fuzzMaxKeys))
	for i := range keys {
		var k uint64
		for j, c := range body[i*w : i*w+w] {
			k |= uint64(c) << (8 * j)
		}
		keys[i] = k << (8 * shift)
	}
	na := len(keys) * int(data[0]) / 255
	return keys[:na], keys[na:]
}

// FuzzLeafKernels checks radixSort against sortRef on a ++ b and seqMerge
// against mergeRef on sorted a and b, each inside a capsule on one native
// runtime that every input reuses: the inputs are loaded per call and the
// lengths travel as run arguments. Each output array is first loaded with
// the complement of the expected words, so a kernel that writes nothing
// cannot pass on a previous input's result, and the inputs must read the
// same afterwards, so a kernel that writes through its input view cannot
// pass either.
func FuzzLeafKernels(f *testing.F) {
	rt := New(WithEngine(EngineNative), WithProcs(1), WithSeed(3), WithMemWords(1<<16))
	defer rt.Close()
	in, out := rt.NewArray(fuzzMaxKeys), rt.NewArray(fuzzMaxKeys)
	A, B, merged := rt.NewArray(fuzzMaxKeys), rt.NewArray(fuzzMaxKeys), rt.NewArray(fuzzMaxKeys)
	sortLeaf := rt.Register("fuzz/radix", func(c Ctx) {
		out.SetRange(c, 0, radixSort(c, in.Slice(c, 0, c.Int(0))))
		c.Done()
	})
	mergeLeaf := rt.Register("fuzz/merge", func(c Ctx) {
		merged.SetRange(c, 0, seqMerge(c, A.Slice(c, 0, c.Int(0)), B.Slice(c, 0, c.Int(1))))
		c.Done()
	})

	f.Add([]byte{})                                                // no keys
	f.Add([]byte{255, 0, 42})                                      // one key in a
	f.Add([]byte{0, 7, 1, 2, 3, 4, 5, 6, 7, 8})                    // one 8-byte key in b
	f.Add(append([]byte{128, 0}, bytes.Repeat([]byte{7}, 300)...)) // all keys equal
	// Runs that meet in the middle: a holds 0..9 and b 5..14, five copies
	// each, so both ends of the merge walk through ties.
	runs := []byte{128, 0}
	for v := byte(0); v < 10; v++ {
		runs = append(runs, bytes.Repeat([]byte{v}, 5)...)
	}
	for v := byte(5); v < 15; v++ {
		runs = append(runs, bytes.Repeat([]byte{v}, 5)...)
	}
	f.Add(runs)
	wide := []byte{100, 8*3 + 1} // 2-byte keys at bytes 3 and 4
	for v := byte(0); v < 64; v++ {
		wide = append(wide, v*37)
	}
	f.Add(wide)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzKeys(data)
		all := slices.Concat(a, b)
		sa, sb := sortRef(a), sortRef(b)
		in.LoadAt(0, all)
		A.LoadAt(0, sa)
		B.LoadAt(0, sb)
		for _, k := range []struct {
			kernel string
			root   FuncRef
			args   []any
			got    Array
			want   []uint64
		}{
			{"radixSort", sortLeaf, []any{len(all)}, out, sortRef(all)},
			{"seqMerge", mergeLeaf, []any{len(sa), len(sb)}, merged, mergeRef(sa, sb)},
		} {
			stale := make([]uint64, len(k.want))
			for i, v := range k.want {
				stale[i] = ^v
			}
			k.got.LoadAt(0, stale)
			if !rt.Run(k.root, k.args...) {
				t.Fatalf("%s did not complete", k.kernel)
			}
			if err := verifyWords(k.kernel, k.got.SnapshotRange(0, len(k.want)), k.want); err != nil {
				t.Fatalf("a = %v, b = %v: %v", a, b, err)
			}
		}
		if err := sourcesUnchanged([]Array{in, A, B}, [][]uint64{all, sa, sb}); err != nil {
			t.Fatalf("a = %v, b = %v: %v", a, b, err)
		}
	})
}
