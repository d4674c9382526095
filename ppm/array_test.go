package ppm_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
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
// Slices — batching buys one logical round, not a different bill.
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
					for _, v := range in.Slice(c, s[0], s[1]) {
						acc += v
					}
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
		t.Fatalf("Gather charged %d read transfers, k Slices charge %d", g, r)
	}
}

// panicText runs f and returns what it panicked with, "" if it returned.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestIndexedAccessOutOfRange: an index or a range past the array's window
// panics, on both engines, with the message of the accessor it was passed
// to — not Gather's span message — even when the word behind it exists in
// the runtime's memory.
func TestIndexedAccessOutOfRange(t *testing.T) {
	const n = 64
	want := []string{
		"ppm: CAMAt index out of range",
		"ppm: ScatterAt index out of range",
		"ppm: CAMAt length mismatch",
		"ppm: ScatterAt length mismatch",
		"ppm: SetRange out of range",
		"ppm: SetRange out of range",
		"ppm: Gather span out of range",
		"ppm: GatherAt index out of range",
		"ppm: GatherAt index out of range",
		"ppm: FoldAt index out of range",
		"ppm: FoldAt index out of range",
		"ppm: FoldAt length mismatch",
		"ppm: FoldAt length mismatch",
		"ppm: FoldAt index out of range",
		"ppm: FoldAt unknown fold",
	}
	for _, eng := range bothEngines {
		rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(1), ppm.WithSeed(1))
		in := rt.NewArray(n)
		rt.NewArray(n) // the words past in's window belong to this one
		ok := rt.NewArray(len(want))
		root := rt.Register("indexed/range", func(c ppm.Ctx) {
			one := []uint64{1}
			got := []string{ // the writes first, so no read precedes them
				panicText(func() { in.CAMAt(c, []uint64{n}, 0, one) }),
				panicText(func() { in.ScatterAt(c, []uint64{^uint64(0)}, one) }),
				panicText(func() { in.CAMAt(c, []uint64{1, 2}, 0, one) }),
				panicText(func() { in.ScatterAt(c, nil, one) }),
				panicText(func() { in.SetRange(c, n-1, []uint64{1, 2}) }),
				panicText(func() { in.SetRange(c, -1, one) }),
				panicText(func() { in.Gather(c, [][2]int{{n, n + 1}}, nil) }),
				panicText(func() { in.GatherAt(c, []uint64{3, n}, nil) }),
				panicText(func() { in.GatherAt(c, []uint64{^uint64(0)}, nil) }),
				panicText(func() { in.FoldAt(c, ppm.FoldMin, []uint64{3, n}, []uint64{0, 2}, c.Scratch(2)) }),
				panicText(func() { in.FoldAt(c, ppm.FoldSum, []uint64{^uint64(0)}, one, c.Scratch(1)) }),
				panicText(func() { in.FoldAt(c, ppm.FoldMin, []uint64{1, 2}, []uint64{1, ^uint64(0)}, c.Scratch(2)) }),
				panicText(func() { in.FoldAt(c, ppm.FoldSum, []uint64{1}, one, nil) }),
				panicText(func() { in.FoldAt(c, ppm.FoldOr, []uint64{0, n}, []uint64{2}, c.Scratch(1)) }),
				panicText(func() { in.FoldAt(c, ppm.Fold(3), []uint64{1}, one, c.Scratch(1)) }),
			}
			for k, msg := range got {
				if msg == want[k] {
					ok.Set(c, k, 1)
				}
			}
			c.Done()
		})
		if !rt.Run(root) {
			t.Fatalf("%s: did not complete", eng)
		}
		for k, v := range ok.Snapshot() {
			if v != 1 {
				t.Errorf("%s: call %d did not panic with %q", eng, k, want[k])
			}
		}
		rt.Close()
	}
}

// TestFoldAtCost: FoldAt charges exactly what GatherAt charges for the same
// indices — on the model one block transfer per index, natively one batch of
// len(idx) words — for every fold.
func TestFoldAtCost(t *testing.T) {
	const n = 512
	idx := []uint64{0, 1, 9, 8, 8, 511, 64, 300, 301, 7}
	lens := []uint64{4, 0, 5, 1}
	for _, eng := range bothEngines {
		run := func(fold bool, op ppm.Fold) ppm.Stats {
			rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(1), ppm.WithSeed(2))
			defer rt.Close()
			in := rt.NewArray(n)
			in.Load(seqWords(n))
			sink := rt.NewArray(len(lens))
			root := rt.Register("cost/root", func(c ppm.Ctx) {
				if fold {
					acc := c.Scratch(len(lens))
					in.FoldAt(c, op, idx, lens, acc)
					sink.SetRange(c, 0, acc)
				} else {
					sink.SetRange(c, 0, in.GatherAt(c, idx, nil)[:len(lens)])
				}
				c.Done()
			})
			if !rt.Run(root) {
				t.Fatalf("%s: did not complete", eng)
			}
			return rt.Stats()
		}
		g := run(false, 0)
		for _, op := range []ppm.Fold{ppm.FoldMin, ppm.FoldSum, ppm.FoldOr} {
			f := run(true, op)
			if f.Reads != g.Reads || f.Work != g.Work || f.UserWork != g.UserWork {
				t.Errorf("%s: fold %d charged reads %d, work %d, user work %d; GatherAt %d, %d, %d",
					eng, op, f.Reads, f.Work, f.UserWork, g.Reads, g.Work, g.UserWork)
			}
		}
	}
}

// batchRun is what one program left behind: its output words, its
// counters, and the WAR checker's lines.
type batchRun struct {
	words []uint64
	stats ppm.Stats
	wars  []string
}

// runBatch runs body as the single capsule "batch/leaf" on a fresh one-worker
// runtime of eng with the WAR checker on, over an array of n words
// loaded with init, and returns the array afterwards with the run's record.
func runBatch(t *testing.T, eng ppm.Engine, n int, init []uint64, body func(c ppm.Ctx, a, out ppm.Array)) batchRun {
	t.Helper()
	rt := ppm.New(ppm.WithEngine(eng), ppm.WithProcs(1), ppm.WithSeed(4), ppm.WithWARCheck())
	defer rt.Close()
	a := rt.NewArray(n)
	a.Load(init)
	out := rt.NewArray(4 * n)
	root := rt.Register("batch/leaf", func(c ppm.Ctx) {
		body(c, a, out)
		c.Done()
	})
	if !rt.Run(root) {
		t.Fatalf("%s: did not complete", eng)
	}
	return batchRun{append(a.Snapshot(), out.Snapshot()...), rt.Stats(), rt.WARViolations()}
}

// TestBatchedAccessorsMatchLoops holds Gather, FoldAt, CAMAt, ScatterAt and
// Scatter to the per-span or per-word loops they replace, on both engines:
// the same words, the same Stats (on the model, the same block transfers),
// and the same WAR checker lines for a conflict planted behind each batch.
// The spans have lengths 0, 1, 2, 8, 9 and 1 000, out of order, one ending on
// the array's last word; Gather reads them into a nil dst and appends them to
// a non-nil one, and Scatter writes them. The indices repeat, one is the
// array's last word, and FoldAt cuts them into segments of 3, 0, 4 and 1;
// CAMAt's first claim of each index must win.
func TestBatchedAccessorsMatchLoops(t *testing.T) {
	const n = 2048
	spans := [][2]int{{700, 709}, {5, 5}, {1048, 2048}, {40, 42}, {3, 4}, {100, 108}, {0, 1}}
	idx := []uint64{9, 2047, 9, 0, 512, 9, 33, 0}
	vals := []uint64{101, 102, 103, 104, 105, 106, 107, 108}
	prefix := []uint64{7, 8, 9}
	// claimable holds 0, the value the claims CAM from, at every claimed
	// index but 512, whose claim must lose.
	claimable := seqWords(n)
	for _, i := range idx {
		claimable[i] = 0
	}
	claimable[512] = 1
	lens := []uint64{3, 0, 4, 1}
	accs := map[ppm.Fold][]uint64{
		ppm.FoldMin: {^uint64(0), 5, 1 << 40, 1},
		ppm.FoldSum: {0, math.Float64bits(1.5), math.Float64bits(-0.25), math.Float64bits(1e-3)},
		ppm.FoldOr:  {0, 1 << 63, 6, 0},
	}
	type batchCase struct {
		name        string
		init        []uint64
		batch, loop func(c ppm.Ctx, a, out ppm.Array)
		want        func([]uint64) []uint64 // the array and out's prefix after the run
	}
	// foldCase folds idx's segments into out, then plants a write into the
	// block of the array's last word, which the fold read.
	foldCase := func(name string, op ppm.Fold, init []uint64) batchCase {
		return batchCase{name, init,
			func(c ppm.Ctx, a, out ppm.Array) {
				acc := append(c.Scratch(len(lens))[:0], accs[op]...)
				a.FoldAt(c, op, idx, lens, acc)
				out.SetRange(c, 0, acc)
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				a.Set(c, n-1, 1)
			},
			func(c ppm.Ctx, a, out ppm.Array) {
				get := func(i uint64) uint64 { return a.Get(c, int(i)) }
				out.SetRange(c, 0, foldLoop(op, get, idx, lens, accs[op]))
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				a.Set(c, n-1, 1)
			},
			func(w []uint64) []uint64 {
				acc := foldLoop(op, func(i uint64) uint64 { return w[i] }, idx, lens, accs[op])
				w[n-1] = 1
				return slices.Concat(w, acc)
			},
		}
	}
	src := make([]uint64, 0, n)
	for _, s := range spans {
		for i := s[0]; i < s[1]; i++ {
			src = append(src, uint64(5000+i))
		}
	}
	cases := []batchCase{
		{"gather", seqWords(n),
			func(c ppm.Ctx, a, out ppm.Array) {
				g := a.Gather(c, spans, nil)
				out.SetRange(c, 0, g)
				out.SetRange(c, len(g), a.Gather(c, spans, append(c.Scratch(len(prefix))[:0], prefix...)))
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				a.Set(c, n-1, 1)
			},
			func(c ppm.Ctx, a, out ppm.Array) {
				var g []uint64
				for _, s := range spans {
					g = append(g, a.Slice(c, s[0], s[1])...)
				}
				out.SetRange(c, 0, g)
				h := slices.Clone(prefix)
				for _, s := range spans {
					h = append(h, a.Slice(c, s[0], s[1])...)
				}
				out.SetRange(c, len(g), h)
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				a.Set(c, n-1, 1)
			},
			func(w []uint64) []uint64 {
				var g []uint64
				for _, s := range spans {
					g = append(g, w[s[0]:s[1]]...)
				}
				w[n-1] = 1
				return slices.Concat(w, g, prefix, g)
			},
		},
		foldCase("foldmin", ppm.FoldMin, seqWords(n)),
		foldCase("foldsum", ppm.FoldSum, floatWords(n)),
		foldCase("foldor", ppm.FoldOr, maskWords(n)),
		{"camat", claimable,
			func(c ppm.Ctx, a, out ppm.Array) {
				_ = a.Get(c, 33)
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				a.CAMAt(c, idx, 0, vals)
			},
			func(c ppm.Ctx, a, out ppm.Array) {
				_ = a.Get(c, 33)
				for k, i := range idx {
					//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
					c.CAM(a.At(int(i)), 0, vals[k])
				}
			},
			func(w []uint64) []uint64 {
				w[9], w[n-1], w[0], w[33] = 101, 102, 104, 107 // first claims win
				return w
			},
		},
		{"scatterat", seqWords(n),
			func(c ppm.Ctx, a, out ppm.Array) {
				_ = a.Get(c, 33)
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				a.ScatterAt(c, idx, vals)
			},
			func(c ppm.Ctx, a, out ppm.Array) {
				_ = a.Get(c, 33)
				for k, i := range idx {
					//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
					a.Set(c, int(i), vals[k])
				}
			},
			func(w []uint64) []uint64 {
				for k, i := range idx {
					w[i] = vals[k] // the last write of a repeated index wins
				}
				return w
			},
		},
		{"scatter", seqWords(n),
			func(c ppm.Ctx, a, out ppm.Array) {
				_ = a.Get(c, 41)
				//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
				a.Scatter(c, spans, src)
			},
			func(c ppm.Ctx, a, out ppm.Array) {
				_ = a.Get(c, 41)
				at := 0
				for _, s := range spans {
					//ppm:allow warfree this test plants the conflict both dynamic checkers must flag
					a.SetRange(c, s[0], src[at:at+s[1]-s[0]])
					at += s[1] - s[0]
				}
			},
			func(w []uint64) []uint64 {
				at := 0
				for _, s := range spans {
					at += copy(w[s[0]:s[1]], src[at:])
				}
				return w
			},
		},
	}
	for _, eng := range bothEngines {
		for _, tc := range cases {
			t.Run(string(eng)+"/"+tc.name, func(t *testing.T) {
				b := runBatch(t, eng, n, tc.init, tc.batch)
				l := runBatch(t, eng, n, tc.init, tc.loop)
				want := tc.want(slices.Clone(tc.init))
				if !slices.Equal(b.words[:len(want)], want) {
					t.Error("batched words differ from the reference")
				}
				if !slices.Equal(b.words, l.words) {
					t.Error("batched words differ from the loop's")
				}
				if b.stats != l.stats {
					t.Errorf("batched stats %+v, loop %+v", b.stats, l.stats)
				}
				// The model's checker does not track CAMs (their replay safety
				// is Theorem 5.2's, not WAR-freedom), so its camat lines are
				// empty for the loop and the batch alike.
				if len(b.wars) == 0 && !(eng == ppm.EngineModel && tc.name == "camat") {
					t.Error("the planted conflict was not flagged")
				}
				if !slices.Equal(b.wars, l.wars) {
					t.Errorf("WAR lines, batched:\n%s\nloop:\n%s",
						strings.Join(b.wars, "\n"), strings.Join(l.wars, "\n"))
				}
			})
		}
	}
}

// foldLoop is FoldAt's plain loop: acc (a copy of init) folds get(i) for
// the indices i of each segment of idx, in order.
func foldLoop(op ppm.Fold, get func(uint64) uint64, idx, lens, init []uint64) []uint64 {
	acc := slices.Clone(init)
	for s, l := range lens {
		for _, i := range idx[:l] {
			switch op {
			case ppm.FoldSum:
				acc[s] = math.Float64bits(math.Float64frombits(acc[s]) + math.Float64frombits(get(i)))
			case ppm.FoldOr:
				acc[s] |= get(i)
			default:
				acc[s] = min(acc[s], get(i))
			}
		}
		idx = idx[l:]
	}
	return acc
}

// maskWords returns n words of one to three set bits each, spread over
// the whole word, as MultiBFS source masks are.
func maskWords(n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = 1<<(i%64) | 1<<(i*7%61)
	}
	return vals
}

// floatWords returns n float64 bit patterns whose sums round.
func floatWords(n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = math.Float64bits(1 / float64(i+3))
	}
	return vals
}

// batchFuzzWords is the fuzzed array's length; batchFuzzMax caps the spans
// and the indices one input decodes to.
const (
	batchFuzzWords = 256
	batchFuzzMax   = 512
)

// batchFuzzInput decodes a fuzz input. data[0] sets the span count (up to
// 31); each span is then two bytes, its start and a length byte: below 128 a
// short span of up to 11 words, either side of Gather's 8-word inline copy,
// else a long one, clipped at the array's end. Every byte after the spans is
// one index, so indices repeat often.
func batchFuzzInput(data []byte) (spans [][2]int, idx []uint64) {
	if len(data) == 0 {
		return nil, nil
	}
	ns := int(data[0] % 32)
	data = data[1:]
	for ; ns > 0 && len(data) >= 2; ns-- {
		lo, l := int(data[0]), int(data[1])
		if l < 128 {
			l %= 12
		} else {
			l = 2 * (l - 128)
		}
		spans = append(spans, [2]int{lo, min(lo+l, batchFuzzWords)})
		data = data[2:]
	}
	for _, b := range data[:min(len(data), batchFuzzMax)] {
		idx = append(idx, uint64(b))
	}
	return spans, idx
}

// foldFuzzLens cuts idx into the fuzz target's FoldAt segments, appending
// their lengths to lens: a segment ends after every index ≡ 3 (mod 4), one
// ≡ 15 (mod 16) adds an empty segment behind it, and the last segment, which
// may be empty, ends with idx.
func foldFuzzLens(idx, lens []uint64) []uint64 {
	run := uint64(0)
	for _, i := range idx {
		run++
		if i%4 == 3 {
			lens, run = append(lens, run), 0
			if i%16 == 15 {
				lens = append(lens, 0)
			}
		}
	}
	return append(lens, run)
}

// foldFuzzInit is the fuzz target's starting min, sum and or for segment
// s: a min above, at or inside the array's values, a sum that rounds, and
// an or that is empty or holds one high bit.
func foldFuzzInit(s int) (minAcc, sumAcc, orAcc uint64) {
	return 4 - uint64(s%3), math.Float64bits(float64(s) / 7), uint64(s%2) << 63
}

// batchFuzzProgram is the fuzz target's program on one runtime: a Seq of a
// read phase (two forked leaves, each a Gather of half the spans, and a
// GatherAt and three FoldAts — a FoldMin over the array, a FoldSum over a
// second one of float64 words and a FoldOr over a third of source masks —
// of half the indices), a claim phase (one CAMAt over every index,
// claiming words that hold 0), and a store phase (two forked leaves, each a
// ScatterAt of the indices of one parity, so no word has two writers).
type batchFuzzProgram struct {
	rt                           *ppm.Runtime
	arr, spanW, idxW, gOut, aOut ppm.Array
	fArr, minOut, sumOut         ppm.Array
	mArr, orOut                  ppm.Array
	root                         ppm.FuncRef
}

func newBatchFuzzProgram(procs int) *batchFuzzProgram {
	rt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(procs), ppm.WithSeed(11), ppm.WithMemWords(1<<16))
	p := &batchFuzzProgram{
		rt:    rt,
		arr:   rt.NewArray(batchFuzzWords),
		spanW: rt.NewArray(64),
		idxW:  rt.NewArray(batchFuzzMax),
		gOut:  rt.NewArray(32 * batchFuzzWords),
		aOut:  rt.NewArray(batchFuzzMax),
		fArr:  rt.NewArray(batchFuzzWords),
		// Two halves of indices cut into at most 2·len+1 segments each.
		minOut: rt.NewArray(2*batchFuzzMax + 2),
		sumOut: rt.NewArray(2*batchFuzzMax + 2),
		mArr:   rt.NewArray(batchFuzzWords),
		orOut:  rt.NewArray(2*batchFuzzMax + 2),
	}
	p.fArr.Load(floatWords(batchFuzzWords))
	p.mArr.Load(maskWords(batchFuzzWords))
	spansOf := func(c ppm.Ctx, lo, hi int) [][2]int {
		w := p.spanW.Slice(c, 2*lo, 2*hi)
		spans := c.ScratchSpans(hi - lo)
		for i := range spans {
			spans[i] = [2]int{int(w[2*i]), int(w[2*i+1])}
		}
		return spans
	}
	// read: args [s0, s1, i0, i1, second], a half of the spans and of the
	// indices, the second half when second is 1.
	read := rt.Register("fuzz/batch/read", func(c ppm.Ctx) {
		s0, s1, i0, i1 := c.Int(0), c.Int(1), c.Int(2), c.Int(3)
		off := 0
		for _, s := range spansOf(c, 0, s0) {
			off += s[1] - s[0]
		}
		p.gOut.SetRange(c, off, p.arr.Gather(c, spansOf(c, s0, s1), nil))
		half := p.idxW.Slice(c, i0, i1)
		p.aOut.SetRange(c, i0, p.arr.GatherAt(c, half, nil))
		seg := 0 // the first half's segments come first
		if c.Int(4) == 1 {
			seg = len(foldFuzzLens(p.idxW.Slice(c, 0, i0), c.Scratch(2*i0 + 1)[:0]))
		}
		lens := foldFuzzLens(half, c.Scratch(2*len(half) + 1)[:0])
		mins, sums, ors := c.Scratch(len(lens)), c.Scratch(len(lens)), c.Scratch(len(lens))
		for s := range lens {
			mins[s], sums[s], ors[s] = foldFuzzInit(seg + s)
		}
		p.arr.FoldAt(c, ppm.FoldMin, half, lens, mins)
		p.fArr.FoldAt(c, ppm.FoldSum, half, lens, sums)
		p.mArr.FoldAt(c, ppm.FoldOr, half, lens, ors)
		p.minOut.SetRange(c, seg, mins)
		p.sumOut.SetRange(c, seg, sums)
		p.orOut.SetRange(c, seg, ors)
		c.Done()
	})
	readP := rt.Register("fuzz/batch/readP", func(c ppm.Ctx) {
		ns, ni := c.Int(0), c.Int(1)
		c.Fork(read.Call(0, ns/2, 0, ni/2, 0), read.Call(ns/2, ns, ni/2, ni, 1))
	})
	claim := rt.Register("fuzz/batch/claim", func(c ppm.Ctx) {
		idx := p.idxW.Slice(c, 0, c.Int(0))
		vals := c.Scratch(len(idx))
		for k := range vals {
			vals[k] = 1000 + uint64(k)
		}
		p.arr.CAMAt(c, idx, 0, vals)
		c.Done()
	})
	// store: args [ni, parity].
	store := rt.Register("fuzz/batch/store", func(c ppm.Ctx) {
		ni, parity := c.Int(0), uint64(c.Int(1))
		idx, vals := c.Scratch(ni)[:0], c.Scratch(ni)[:0]
		for k, i := range p.idxW.Slice(c, 0, ni) {
			if i%2 == parity {
				idx = append(idx, i)
				vals = append(vals, 5000+uint64(k))
			}
		}
		p.arr.ScatterAt(c, idx, vals)
		c.Done()
	})
	storeP := rt.Register("fuzz/batch/storeP", func(c ppm.Ctx) {
		ni := c.Int(0)
		c.Fork(store.Call(ni, 0), store.Call(ni, 1))
	})
	p.root = rt.Register("fuzz/batch/root", func(c ppm.Ctx) {
		ns, ni := c.Int(0), c.Int(1)
		c.Seq(readP.Call(ns, ni), claim.Call(ni), storeP.Call(ni))
	})
	return p
}

// FuzzBatchedAccessors runs Gather, GatherAt, FoldAt, CAMAt and ScatterAt
// over random spans and index lists on the native engine, at one worker and
// at two, against the same operations on a plain-Go copy of the array. The
// array starts as i mod 4, so a quarter of the claims find the 0 they CAM
// from and the first claim of a repeated index wins; FoldAt's segments come
// from the indices themselves (foldFuzzLens), and its sums must match the
// plain loop's bit for bit.
func FuzzBatchedAccessors(f *testing.F) {
	progs := []*batchFuzzProgram{newBatchFuzzProgram(1), newBatchFuzzProgram(2)}
	defer func() {
		for _, p := range progs {
			p.rt.Close()
		}
	}()
	f.Add([]byte{})                                 // nothing to do
	f.Add([]byte{1, 255, 1})                        // the array's last word
	f.Add([]byte{3, 0, 8, 100, 9, 20, 0, 4, 4, 8})  // 8, 9 and 0 words; repeated indices
	f.Add([]byte{2, 0, 255, 128, 200, 0, 255, 128}) // two long spans
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, idx := batchFuzzInput(data)
		ref := make([]uint64, batchFuzzWords)
		for i := range ref {
			ref[i] = uint64(i % 4)
		}
		init := slices.Clone(ref)
		var gathered, at []uint64
		for _, s := range spans {
			gathered = append(gathered, ref[s[0]:s[1]]...)
		}
		for _, i := range idx {
			at = append(at, ref[i])
		}
		var mins, sums, ors []uint64
		fvals, mvals := floatWords(batchFuzzWords), maskWords(batchFuzzWords)
		for _, half := range [][]uint64{idx[:len(idx)/2], idx[len(idx)/2:]} {
			lens := foldFuzzLens(half, nil)
			minInit, sumInit, orInit := make([]uint64, len(lens)), make([]uint64, len(lens)), make([]uint64, len(lens))
			for s := range lens {
				minInit[s], sumInit[s], orInit[s] = foldFuzzInit(len(mins) + s)
			}
			mins = append(mins, foldLoop(ppm.FoldMin, func(i uint64) uint64 { return ref[i] }, half, lens, minInit)...)
			sums = append(sums, foldLoop(ppm.FoldSum, func(i uint64) uint64 { return fvals[i] }, half, lens, sumInit)...)
			ors = append(ors, foldLoop(ppm.FoldOr, func(i uint64) uint64 { return mvals[i] }, half, lens, orInit)...)
		}
		for k, i := range idx {
			if ref[i] == 0 {
				ref[i] = 1000 + uint64(k)
			}
		}
		for k, i := range idx {
			ref[i] = 5000 + uint64(k)
		}
		sw := make([]uint64, 0, 2*len(spans))
		for _, s := range spans {
			sw = append(sw, uint64(s[0]), uint64(s[1]))
		}
		for _, p := range progs {
			// The outputs start as the complement of what the run must
			// write, so a batch that writes nothing cannot pass on a
			// previous input's result.
			p.gOut.LoadAt(0, complement(gathered))
			p.aOut.LoadAt(0, complement(at))
			p.minOut.LoadAt(0, complement(mins))
			p.sumOut.LoadAt(0, complement(sums))
			p.orOut.LoadAt(0, complement(ors))
			p.arr.Load(init)
			p.spanW.LoadAt(0, sw)
			p.idxW.LoadAt(0, idx)
			if !p.rt.Run(p.root, len(spans), len(idx)) {
				t.Fatalf("P=%d: did not complete", p.rt.Procs())
			}
			for _, chk := range []struct {
				what      string
				got, want []uint64
			}{
				{"Gather", p.gOut.SnapshotRange(0, len(gathered)), gathered},
				{"GatherAt", p.aOut.SnapshotRange(0, len(at)), at},
				{"FoldAt min", p.minOut.SnapshotRange(0, len(mins)), mins},
				{"FoldAt sum", p.sumOut.SnapshotRange(0, len(sums)), sums},
				{"FoldAt or", p.orOut.SnapshotRange(0, len(ors)), ors},
				{"CAMAt, then ScatterAt", p.arr.Snapshot(), ref},
			} {
				if !slices.Equal(chk.got, chk.want) {
					t.Fatalf("P=%d, spans %v, idx %v: %s gave %v, want %v",
						p.rt.Procs(), spans, idx, chk.what, chk.got, chk.want)
				}
			}
		}
	})
}

// complement returns ^w for every word w of ws.
func complement(ws []uint64) []uint64 {
	out := make([]uint64, len(ws))
	for i, w := range ws {
		out[i] = ^w
	}
	return out
}
