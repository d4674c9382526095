package ppm_test

import (
	"testing"

	"repro/ppm"
)

var bothEngines = []ppm.Engine{ppm.EngineModel, ppm.EngineNative}

// seqWords returns n distinct non-zero words.
func seqWords(n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)*2654435761%1000003 + 1
	}
	return vals
}

// TestGatherAtBothEngines checks the indexed read primitive on both engines
// against per-index Get: arbitrary order, duplicates, an empty batch, a nil
// dst and an appended-to one.
func TestGatherAtBothEngines(t *testing.T) {
	const n = 300
	vals := seqWords(n)
	idx := []uint64{7, 299, 0, 7, 7, 150, 8, 299}
	for _, eng := range bothEngines {
		rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(2), ppm.WithSeed(1))
		in := rt.NewArray(n)
		in.Load(vals)
		out := rt.NewArray(3*len(idx) + 2)
		root := rt.Register("gatherat/root", func(c ppm.Ctx) {
			k := len(idx)
			got := in.GatherAt(c, idx, nil)
			out.SetRange(c, 0, got)
			for i, at := range idx {
				out.Set(c, k+i, in.Get(c, int(at)))
			}
			// Appending keeps the prefix; an empty batch changes nothing.
			pre := []uint64{41, 42}
			app := in.GatherAt(c, idx[:3], pre)
			app = in.GatherAt(c, nil, app)
			out.SetRange(c, 2*k, app)
			out.Set(c, 3*k+1, uint64(len(in.GatherAt(c, nil, nil))+len(app)))
			c.Done()
		})
		if !rt.Run(root) {
			t.Fatalf("%s: did not complete", eng)
		}
		got := out.Snapshot()
		k := len(idx)
		for i, at := range idx {
			if got[i] != vals[at] || got[k+i] != vals[at] {
				t.Fatalf("%s: GatherAt[%d] = %d, Get = %d, want %d", eng, i, got[i], got[k+i], vals[at])
			}
		}
		want := []uint64{41, 42, vals[7], vals[299], vals[0]}
		for i, w := range want {
			if got[2*k+i] != w {
				t.Fatalf("%s: appended GatherAt[%d] = %d, want %d", eng, i, got[2*k+i], w)
			}
		}
		if got[3*k+1] != uint64(len(want)) {
			t.Fatalf("%s: empty batches changed the length: %d", eng, got[3*k+1])
		}
		rt.Close()
	}
}

// TestGatherAtModelCost checks the model-engine cost contract: GatherAt
// charges exactly what Gather charges the same batch as one-word spans.
func TestGatherAtModelCost(t *testing.T) {
	const n = 512
	vals := seqWords(n)
	idx := []uint64{0, 1, 9, 8, 8, 511, 64, 300, 301, 7}
	reads := func(indexed bool) int64 {
		rt := ppm.New(ppm.WithProcs(1), ppm.WithSeed(2))
		defer rt.Close()
		in := rt.NewArray(n)
		in.Load(vals)
		sink := rt.NewArray(1)
		root := rt.Register("cost/root", func(c ppm.Ctx) {
			var got []uint64
			if indexed {
				got = in.GatherAt(c, idx, nil)
			} else {
				spans := make([][2]int, len(idx))
				for i, at := range idx {
					spans[i] = [2]int{int(at), int(at) + 1}
				}
				got = in.Gather(c, spans, nil)
			}
			var acc uint64
			for _, v := range got {
				acc += v
			}
			sink.Set(c, 0, acc)
			c.Done()
		})
		if !rt.Run(root) {
			t.Fatal("did not complete")
		}
		if sink.Snapshot()[0] == 0 {
			t.Fatal("suspicious zero checksum")
		}
		return rt.Stats().Reads
	}
	if g, s := reads(true), reads(false); g != s {
		t.Fatalf("GatherAt charged %d read transfers, one-word-span Gather charges %d", g, s)
	}
}

// TestEphemeralMemoryNative pins the native engine's ephemeral-memory
// semantics: Scratch is zeroed even after a capsule that dirtied the arena,
// slices taken earlier in a capsule survive the arena growing under later
// requests, and a request larger than the arena comes from the heap.
func TestEphemeralMemoryNative(t *testing.T) {
	const n = 1 << 19 // larger than a worker's whole arena
	vals := seqWords(n)
	rt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(1), ppm.WithMemWords(1<<21))
	defer rt.Close()
	in := rt.NewArray(n)
	in.Load(vals)
	ok := rt.NewArray(2)

	same := func(got, want []uint64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	check := rt.Register("eph/check", func(c ppm.Ctx) {
		clean := true
		for _, w := range c.Scratch(3000) {
			clean = clean && w == 0
		}
		for _, s := range c.ScratchSpans(100) {
			clean = clean && s == [2]int{}
		}
		if clean {
			ok.Set(c, 1, 1)
		}
		c.Done()
	})
	// scribble runs on the arena dirty left behind (folded into one chunk at
	// the capsule boundary) and fills the words check will be handed next.
	scribble := rt.Register("eph/scribble", func(c ppm.Ctx) {
		s, sp := c.Scratch(3000), c.ScratchSpans(100)
		for i := range s {
			s[i] = ^uint64(0)
		}
		for i := range sp {
			sp[i] = [2]int{-1, -1}
		}
		c.Then(check.Call())
	})
	dirty := rt.Register("eph/dirty", func(c ppm.Ctx) {
		a := in.Gather(c, [][2]int{{0, 3000}}, nil) // fits the first chunk
		s := c.Scratch(3000)                        // does not fit beside a: a fresh chunk
		b := in.Gather(c, [][2]int{{5000, 25000}}, nil)
		g := in.GatherAt(c, []uint64{1, 2, 3}, nil)
		big := in.Gather(c, [][2]int{{0, n}}, nil) // past the arena's ceiling: the heap
		for i := range s {
			s[i] = ^uint64(0)
		}
		if same(a, vals[:3000]) && same(b, vals[5000:25000]) &&
			same(g, vals[1:4]) && same(big, vals) {
			ok.Set(c, 0, 1)
		}
		c.Then(scribble.Call())
	})
	if !rt.Run(dirty) {
		t.Fatal("did not complete")
	}
	got := ok.Snapshot()
	if got[0] != 1 {
		t.Error("a slice taken earlier in the capsule changed when the arena grew")
	}
	if got[1] != 1 {
		t.Error("Scratch handed out dirty words after a capsule that wrote the arena")
	}
}

// ephLeafProgram is a leaf that lives in ephemeral memory the way the graph
// scan leaves do: a Slice of its range, a Scratch index vector, a GatherAt
// through it, a Scratch result vector, one SetRange.
func ephLeafProgram(rt *ppm.Runtime, n int, vals []uint64) (ppm.FuncRef, ppm.Array) {
	in := rt.NewArray(n)
	in.Load(vals)
	out := rt.NewArray(n)
	leaf := rt.Register("eph/leaf", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		mine := in.Slice(c, lo, hi)
		idx := c.Scratch(hi - lo)
		for i, v := range mine {
			idx[i] = v % uint64(n)
		}
		far := in.GatherAt(c, idx, nil)
		res := c.Scratch(hi - lo)
		for i := range res {
			res[i] = mine[i]*3 + far[i]
		}
		out.SetRange(c, lo, res)
		c.Done()
	})
	root := rt.Register("eph/root", func(c ppm.Ctx) {
		c.ParallelFor(leaf, 0, n, 48)
	})
	return root, out
}

// TestEphemeralFaultSweepNative: a soft fault loses the capsule's ephemeral
// memory and the replay starts from a rewound arena, so a Scratch/Slice-heavy
// program must produce bit-exactly the fault-free output at every rate.
func TestEphemeralFaultSweepNative(t *testing.T) {
	const n = 1 << 13
	vals := seqWords(n)
	var want []uint64
	for _, f := range []float64{0, 1e-4, 1e-3, 3e-3} {
		opts := []ppm.Option{ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(2), ppm.WithSeed(5)}
		if f > 0 {
			opts = append(opts, ppm.WithFaultRate(f))
		}
		rt := ppm.New(opts...)
		root, out := ephLeafProgram(rt, n, vals)
		if !rt.Run(root) {
			t.Fatalf("f=%g: did not complete", f)
		}
		got := out.Snapshot()
		if f == 0 {
			want = got
		} else if rt.Stats().SoftFaults == 0 {
			t.Errorf("f=%g: no fault was injected", f)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("f=%g: out[%d] = %d, want %d", f, i, got[i], want[i])
			}
		}
		rt.Close()
	}
}

// TestEphemeralLeafAllocatesNothing: a run whose single capsule does a scan
// leaf's worth of Slice/GatherAt/Scratch/SetRange allocates exactly what a
// run of an empty capsule allocates — the leaf's vectors come from the
// worker's arena, not the Go heap.
func TestEphemeralLeafAllocatesNothing(t *testing.T) {
	const n = 2048
	rt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(1))
	defer rt.Close()
	in := rt.NewArray(n)
	in.Load(seqWords(n))
	out := rt.NewArray(n)
	empty := rt.Register("alloc/empty", func(c ppm.Ctx) { c.Done() })
	leaf := rt.Register("alloc/leaf", func(c ppm.Ctx) {
		mine := in.Slice(c, 0, n)
		idx := c.Scratch(n)
		for i, v := range mine {
			idx[i] = v % n
		}
		far := in.GatherAt(c, idx, nil)
		spans := c.ScratchSpans(4)
		for i := range spans {
			spans[i] = [2]int{i * 100, i*100 + 50}
		}
		some := in.Gather(c, spans, nil)
		res := c.Scratch(n)
		for i := range res {
			res[i] = mine[i] + far[i] + some[i%len(some)]
		}
		out.SetRange(c, 0, res)
		c.Done()
	})
	rt.Run(leaf) // first use sizes the arena
	base := testing.AllocsPerRun(20, func() { rt.Run(empty) })
	got := testing.AllocsPerRun(20, func() { rt.Run(leaf) })
	if got != base {
		t.Fatalf("a leaf run allocates %.0f objects, an empty run %.0f", got, base)
	}
}
