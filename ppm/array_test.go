package ppm_test

import (
	"testing"

	"repro/ppm"
)

// TestGatherBothEngines checks the batched multi-range read primitive on
// both engines: span order, empty spans, single-word spans, dst reuse.
func TestGatherBothEngines(t *testing.T) {
	const n = 256
	spans := [][2]int{{3, 9}, {100, 101}, {250, 256}, {40, 40}, {0, 17}}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i*i%251 + 1)
	}
	var want []uint64
	for _, s := range spans {
		want = append(want, vals[s[0]:s[1]]...)
	}
	for _, eng := range []ppm.Engine{ppm.EngineModel, ppm.EngineNative} {
		rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(2), ppm.WithSeed(1))
		in := rt.NewArray(n)
		in.Load(vals)
		out := rt.NewArray(len(want))
		root := rt.Register("gather/root", func(c ppm.Ctx) {
			got := in.Gather(c, spans, make([]uint64, 0, 4)) // exercise dst reuse
			out.SetRange(c, 0, got)
			c.Done()
		})
		if !rt.Run(root) {
			t.Fatalf("%s: did not complete", eng)
		}
		got := out.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: gathered[%d] = %d, want %d", eng, i, got[i], want[i])
			}
		}
	}
}

// TestScatterBothEngines checks the batched multi-range write primitive on
// both engines: span order, empty spans, single-word spans, boundary words.
func TestScatterBothEngines(t *testing.T) {
	const n = 256
	spans := [][2]int{{3, 9}, {100, 101}, {250, 256}, {40, 40}, {12, 29}}
	total := 0
	for _, s := range spans {
		total += s[1] - s[0]
	}
	src := make([]uint64, total)
	for i := range src {
		src[i] = uint64(i*7%251 + 1)
	}
	want := make([]uint64, n)
	at := 0
	for _, s := range spans {
		copy(want[s[0]:s[1]], src[at:at+s[1]-s[0]])
		at += s[1] - s[0]
	}
	for _, eng := range []ppm.Engine{ppm.EngineModel, ppm.EngineNative} {
		rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(2), ppm.WithSeed(1))
		out := rt.NewArray(n)
		root := rt.Register("scatter/root", func(c ppm.Ctx) {
			out.Scatter(c, spans, src)
			c.Done()
		})
		if !rt.Run(root) {
			t.Fatalf("%s: did not complete", eng)
		}
		got := out.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: scattered[%d] = %d, want %d", eng, i, got[i], want[i])
			}
		}
	}
}

// TestScatterModelCost checks the model-engine cost contract: a batched
// Scatter of k spans charges exactly the write transfers of k individual
// SetRanges — batching buys one logical round, not a different bill.
func TestScatterModelCost(t *testing.T) {
	const n = 512
	spans := [][2]int{{0, 64}, {65, 66}, {130, 200}, {300, 511}}
	total := 0
	for _, s := range spans {
		total += s[1] - s[0]
	}
	src := make([]uint64, total)
	for i := range src {
		src[i] = uint64(i + 1)
	}
	writes := func(scatter bool) int64 {
		rt := ppm.New(ppm.WithProcs(1), ppm.WithSeed(2))
		out := rt.NewArray(n)
		root := rt.Register("cost/root", func(c ppm.Ctx) {
			if scatter {
				out.Scatter(c, spans, src)
			} else {
				at := 0
				for _, s := range spans {
					out.SetRange(c, s[0], src[at:at+s[1]-s[0]])
					at += s[1] - s[0]
				}
			}
			c.Done()
		})
		if !rt.Run(root) {
			t.Fatal("did not complete")
		}
		if got := out.Snapshot()[510]; got == 0 {
			t.Fatal("suspicious zero tail word")
		}
		return rt.Stats().Writes
	}
	s, r := writes(true), writes(false)
	if s != r {
		t.Fatalf("Scatter charged %d write transfers, k SetRanges charge %d", s, r)
	}
}

// TestGatherModelCost checks the model-engine cost contract: a batched
// Gather of k spans charges exactly the block transfers of k individual
// Ranges — batching buys one logical round, not a different bill.
func TestGatherModelCost(t *testing.T) {
	const n = 512
	spans := [][2]int{{0, 64}, {65, 66}, {130, 200}, {300, 511}}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	reads := func(gather bool) int64 {
		rt := ppm.New(ppm.WithProcs(1), ppm.WithSeed(2))
		in := rt.NewArray(n)
		in.Load(vals)
		sink := rt.NewArray(1)
		root := rt.Register("cost/root", func(c ppm.Ctx) {
			var acc uint64
			if gather {
				for _, v := range in.Gather(c, spans, nil) {
					acc += v
				}
			} else {
				for _, s := range spans {
					in.Range(c, s[0], s[1], func(_ int, v uint64) { acc += v })
				}
			}
			sink.Set(c, 0, acc)
			c.Done()
		})
		if !rt.Run(root) {
			t.Fatal("did not complete")
		}
		if got := sink.Snapshot()[0]; got == 0 {
			t.Fatal("suspicious zero checksum")
		}
		return rt.Stats().Reads
	}
	g, r := reads(true), reads(false)
	if g != r {
		t.Fatalf("Gather charged %d read transfers, k Ranges charge %d", g, r)
	}
}
