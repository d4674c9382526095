package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/ppm"
)

// The probes time one layer at a time from outside: a tiny program whose
// cost is a single mechanism (an accessor, a spawn and join, a phase
// boundary, a persistence point), run on a runtime of its own. They run at
// P=1 unless noted, five timed reps after one warm-up, and report the cost
// per unit of the mechanism.

const (
	probeReps   = 5
	probeChunk  = 1024 // words per Slice/SetRange call: mergesort's leaf
	probeSpan   = 4    // words per Gather span: a short adjacency list
	probeBatch  = 256  // spans per Gather call
	probePhases = 256  // phases of the Seq probe
	probeAllocs = 1 << 16
	emptyRuns   = 100 // runs of the empty program per sample
)

// sink keeps the probes' reads alive.
var sink uint64

// probeRuntime is a native runtime sized for the probes.
func (b *bench) probeRuntime(procs int, extra ...ppm.Option) *ppm.Runtime {
	opts := append([]ppm.Option{
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(procs),
		ppm.WithSeed(b.cfg.seed),
		ppm.WithMemWords(1<<22 + 4*b.sz.probeWords),
	}, extra...)
	return ppm.New(opts...)
}

// probeRun runs root once as a counted operation and returns its wall time.
func (b *bench) probeRun(rt *ppm.Runtime, root ppm.FuncRef, args ...any) time.Duration {
	b.led.attempt()
	t0 := time.Now()
	ok := rt.Run(root, args...)
	d := time.Since(t0)
	if !ok {
		b.led.fail("probe run did not complete")
	}
	return d
}

// perUnit runs root once to warm up and probeReps times for the record, and
// returns each rep's wall divided by units. args, when not nil, gives the
// arguments of each rep.
func (b *bench) perUnit(rt *ppm.Runtime, root ppm.FuncRef, units float64, args func(rep int) []any) series {
	var s series
	for rep := -1; rep < probeReps; rep++ {
		var a []any
		if args != nil {
			a = args(rep + 1)
		}
		d := b.probeRun(rt, root, a...)
		if rep >= 0 {
			s = append(s, float64(d)/units)
		}
	}
	return s
}

// accessorProbes times each word accessor of ppm.Array and Ctx: one capsule
// looping the accessor over the array, wall ÷ words. These are what the
// graph kernels (Get, Gather, Slice, CAM) and the sorts (Slice, SetRange)
// spend their time in.
func (b *bench) accessorProbes() {
	n := b.sz.probeWords
	rt := b.probeRuntime(1)
	defer rt.Close()
	src, dst := rt.NewArray(n), rt.NewArray(n)
	vals := randomWords(n, b.cfg.seed, 1<<32)

	var load, snap series
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		src.Load(vals)
		load = append(load, float64(time.Since(t0))/float64(n))
		t0 = time.Now()
		got := src.Snapshot()
		snap = append(snap, float64(time.Since(t0))/float64(n))
		b.led.attempt()
		b.led.check("load/snapshot round trip", sameWords(got, vals))
	}

	get := rt.Register("probe/get", func(c ppm.Ctx) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc += src.Get(c, i)
		}
		sink = acc
		c.Done()
	})
	set := rt.Register("probe/set", func(c ppm.Ctx) {
		for i := 0; i < n; i++ {
			dst.Set(c, i, uint64(i))
		}
		c.Done()
	})
	slice := rt.Register("probe/slice", func(c ppm.Ctx) {
		var acc uint64
		for lo := 0; lo+probeChunk <= n; lo += probeChunk {
			acc += src.Slice(c, lo, lo+probeChunk)[0]
		}
		sink = acc
		c.Done()
	})
	setRange := rt.Register("probe/setrange", func(c ppm.Ctx) {
		buf := make([]uint64, probeChunk)
		for lo := 0; lo+probeChunk <= n; lo += probeChunk {
			dst.SetRange(c, lo, buf)
		}
		c.Done()
	})
	// Gather reads every other probeSpan-word span, probeBatch spans a call,
	// into a reused buffer: half the array's words in all.
	gathered := 0
	for lo := 0; lo+2*probeSpan*probeBatch <= n; lo += 2 * probeSpan * probeBatch {
		gathered += probeSpan * probeBatch
	}
	gather := rt.Register("probe/gather", func(c ppm.Ctx) {
		spans := make([][2]int, probeBatch)
		var buf []uint64
		var acc uint64
		for lo := 0; lo+2*probeSpan*probeBatch <= n; lo += 2 * probeSpan * probeBatch {
			for k := range spans {
				at := lo + 2*probeSpan*k
				spans[k] = [2]int{at, at + probeSpan}
			}
			buf = src.Gather(c, spans, buf[:0])
			acc += buf[0]
		}
		sink = acc
		c.Done()
	})
	// CAM flips every word of a zeroed array 0→1 on odd reps and back on
	// even ones, so each one succeeds.
	cam := rt.Register("probe/cam", func(c ppm.Ctx) {
		old := c.Uint(0)
		for i := 0; i < n; i++ {
			c.CAM(dst.At(i), old, 1-old)
		}
		c.Done()
	})
	zero := rt.Register("probe/zero", func(c ppm.Ctx) {
		dst.SetRange(c, 0, make([]uint64, n))
		c.Done()
	})
	empty := rt.Register("probe/empty", func(c ppm.Ctx) { c.Done() })

	words := float64(n)
	b.add(
		b.perUnit(rt, get, words, nil).timing("ppm.get_ns_word", inNS),
		b.perUnit(rt, set, words, nil).timing("ppm.set_ns_word", inNS),
		b.perUnit(rt, slice, words, nil).timing("ppm.slice_ns_word", inNS),
		b.perUnit(rt, setRange, words, nil).timing("ppm.setrange_ns_word", inNS),
		b.perUnit(rt, gather, float64(gathered), nil).timing("ppm.gather_ns_word", inNS),
	)
	b.probeRun(rt, zero)
	b.add(
		b.perUnit(rt, cam, words, func(rep int) []any { return []any{uint64(rep % 2)} }).timing("ppm.cam_ns", inNS),
		load.timing("ppm.load_ns_word", inNS),
		snap.timing("ppm.snapshot_ns_word", inNS),
		b.emptyRuns(rt, empty).timing("ppm.run_empty_us", inUS),
	)
}

// emptyRuns times Run of a root that only finishes: the fixed cost of one
// run. Each sample is the mean of emptyRuns runs.
func (b *bench) emptyRuns(rt *ppm.Runtime, empty ppm.FuncRef) series {
	var s series
	for rep := -1; rep < probeReps; rep++ {
		var total time.Duration
		for i := 0; i < emptyRuns; i++ {
			total += b.probeRun(rt, empty)
		}
		if rep >= 0 {
			s = append(s, float64(total)/emptyRuns)
		}
	}
	return s
}

// boundaryCosts are the three costs a persistence mode adds to: per capsule
// of a spawn/join tree, per phase of a Seq chain, per run.
type boundaryCosts struct {
	capsule, phase, run series // ns
}

// boundaryProbes measures boundaryCosts on a runtime of the given width and
// options: a ParallelFor of grain 1 over empty leaves (wall ÷ capsules
// executed), a Seq of empty phases, and runs of an empty root.
func (b *bench) boundaryProbes(procs, leaves int, extra ...ppm.Option) boundaryCosts {
	rt := b.probeRuntime(procs, extra...)
	defer rt.Close()
	empty := rt.Register("probe/empty", func(c ppm.Ctx) { c.Done() })
	tree := rt.Register("probe/tree", func(c ppm.Ctx) { c.ParallelFor(empty, 0, leaves, 1) })
	phases := make([]ppm.Call, probePhases)
	for i := range phases {
		phases[i] = empty.Call()
	}
	chain := rt.Register("probe/chain", func(c ppm.Ctx) { c.Seq(phases...) })

	before := rt.Stats().Capsules
	b.probeRun(rt, tree)
	capsules := float64(rt.Stats().Capsules - before)
	return boundaryCosts{
		capsule: b.perUnit(rt, tree, capsules, nil),
		phase:   b.perUnit(rt, chain, probePhases, nil),
		run:     b.emptyRuns(rt, empty),
	}
}

// schedulerProbes times the native scheduler's mechanisms: spawn and join at
// one worker and at P, a phase boundary, and the capsule allocator.
func (b *bench) schedulerProbes() {
	one := b.boundaryProbes(1, b.sz.probeLeaves)
	wide := b.boundaryProbes(b.cfg.procs, b.sz.probeLeaves)
	b.add(
		one.capsule.timing("native.spawn_join_ns", inNS),
		wide.capsule.timing("native.spawn_join_pn_ns", inNS),
		one.phase.timing("native.seq_phase_us", inUS),
	)
	rt := b.probeRuntime(1)
	defer rt.Close()
	alloc := rt.Register("probe/alloc", func(c ppm.Ctx) {
		var acc int
		for i := 0; i < probeAllocs; i++ {
			acc += c.Alloc(8).Len()
		}
		sink = uint64(acc)
		c.Done()
	})
	b.add(b.perUnit(rt, alloc, probeAllocs, nil).timing("native.alloc_ns", inNS))
}

// persistenceProbes prices a persistence point: the boundary probes on a
// runtime that commits an epoch word per capsule (WithNativePersist) and on
// one whose memory is a region file (WithNativeDurable), each minus the
// plain runtime; then internal/durable's own calls, directly.
func (b *bench) persistenceProbes() {
	leaves := b.sz.probeLeaves / 4 // a durable capsule costs microseconds
	plain := b.boundaryProbes(1, leaves)
	persist := b.boundaryProbes(1, leaves, ppm.WithNativePersist())
	file := b.boundaryProbes(1, leaves, ppm.WithNativeDurable(b.regionPath("probe")))
	b.add(
		minus("native.persist_point_ns", persist.capsule, plain.capsule, inNS),
		minus("durable.point_ns", file.capsule, plain.capsule, inNS),
		minus("durable.phase_commit_us", file.phase, plain.phase, inUS),
		minus("durable.run_fixed_us", file.run, plain.run, inUS),
	)

	const memWords, spanWords = 1 << 20, 64 << 10 / 8
	var create, open, async, sync series
	for rep := 0; rep < probeReps; rep++ {
		path := filepath.Join(b.tmp, fmt.Sprintf("direct-%d.region", rep))
		b.led.attempt()
		t0 := time.Now()
		r, err := durable.Create(path, 1, memWords, 8)
		create.add(time.Since(t0))
		if !b.led.check("durable.Create", err) {
			continue
		}
		words := r.Words()
		for _, sample := range []*series{&async, &sync} {
			for i := 0; i < spanWords; i++ {
				words[i] = uint64(rep + i + 1)
			}
			t0 = time.Now()
			r.SyncWords(0, spanWords, sample == &sync)
			sample.add(time.Since(t0))
		}
		b.led.check("durable.Close", r.Close())
		b.led.attempt()
		t0 = time.Now()
		r, err = durable.Open(path)
		open.add(time.Since(t0))
		if b.led.check("durable.Open", err) {
			if r.Words()[spanWords-1] != uint64(rep+spanWords) {
				b.led.fail("durable.Open: dirtied span did not survive Close")
			}
			r.Close()
		}
	}
	b.add(
		create.timing("durable.create_ms", inMS),
		async.timing("durable.sync_async_us", inUS),
		sync.timing("durable.sync_sync_us", inUS),
		open.timing("durable.open_ms", inMS),
	)
}

// minus reports the difference of two medians with the subtrahend beside it.
func minus(name string, with, without series, per float64) row {
	r := scalar(name, (with.median()-without.median())/per, unitNames[per])
	r.N = len(with)
	r.Base = fmt.Sprintf("plain=%.6g%s", without.median()/per, unitNames[per])
	return r
}

// modelProbes runs mergesort on the model engine — P=1, a fixed seed, without
// faults and at f=2e-4 — and reports its block-transfer counts. They are
// exact, so they guard the simulator's cost semantics (Theorem 6.2's W_f/W)
// against any change that was meant to leave them alone.
func (b *bench) modelProbes() {
	const seed, faultRate = 42, 2e-4
	input := randomWords(b.sz.modelN, seed, 1_000_000)
	run := func(f float64) (ppm.Stats, time.Duration) {
		opts := []ppm.Option{ppm.WithEngine(ppm.EngineModel), ppm.WithProcs(1), ppm.WithSeed(seed),
			ppm.WithEphWords(1 << 13), ppm.WithMemWords(1 << 25), ppm.WithPoolWords(1 << 21)}
		if f > 0 {
			opts = append(opts, ppm.WithFaultRate(f))
		}
		rt := ppm.New(opts...)
		defer rt.Close()
		a := ppm.MergeSort("model", input, 1024)
		a.Build(rt)
		b.led.attempt()
		t0 := time.Now()
		ok := a.Run()
		d := time.Since(t0)
		if !ok {
			b.led.fail("model mergesort at f=%g did not complete", f)
		} else {
			b.led.check("model mergesort verify", a.Verify())
		}
		return rt.Stats(), d
	}
	clean, wall := run(0)
	faulty, _ := run(faultRate)
	if limit := 1 / (2 * float64(clean.MaxCapsWork)); faultRate >= limit {
		b.led.fail("model probe: f=%g is not below 1/(2C)=%g", faultRate, limit)
	}
	b.add(
		scalar("model.mergesort_work", float64(clean.Work), "count"),
		scalar("model.mergesort_work_f", float64(faulty.Work), "count"),
		ratio("model.fault_work_ratio", float64(faulty.Work), float64(clean.Work), "work@f=0", inCount),
		scalar("model.mergesort_capsules", float64(clean.Capsules), "count"),
		series{float64(wall)}.timing("model.sim_ms", inMS),
	)
}
