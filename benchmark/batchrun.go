package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"repro/ppm"
)

// runBatch is one batch workload, start to finish: inputs, set-up (repeated
// for setup_s), the measured passes, verification, and the rows. A traced
// run sets up once, traces every other pass, and goes on to the control
// passes and probes of batchLayers.
func (b *bench) runBatch(w batchSpec) error {
	in, err := b.batchInputs(w)
	if err != nil {
		return err
	}
	var env *batchEnv
	setup, err := b.repeatSetup(
		func() (err error) {
			region := ""
			if w.durable {
				region = b.regionPath(w.name)
			}
			env, err = b.buildBatch(w, in, b.cfg.procs, region)
			return err
		},
		func() { env.close() })
	if err != nil {
		return err
	}
	defer func() { env.close() }()

	plain, traced, counts := b.measureBatch(env)
	b.verifyBatch(env)

	b.add(kindRows(plain.kind)...)
	if b.tr == nil {
		// Ten to twenty passes: the upper quartile is as far out as a tail
		// can honestly be read.
		tail := plain.pass.timing("tail_ms", inMS)
		tail.Value = tail.Q3
		b.add(
			scalar("qps", float64(plain.ops)/plain.elapsed.Seconds(), "ops/s"),
			plain.pass.timing("p50_ms", inMS),
			tail,
			setup.timing("setup_s", inS),
		)
		return nil
	}
	return b.batchLayers(w, in, env, plain, traced, counts)
}

// repeatSetup sets the workload up sizes.setups times — once in a traced
// run — and returns the set-up clock of each repetition. All but the last
// are torn down again, and their memory handed back, so that peak RSS is one
// resident set and not the sum of the repetitions.
func (b *bench) repeatSetup(build func() error, teardown func()) (series, error) {
	reps := b.sz.setups
	if b.tr != nil {
		reps = 1
	}
	var clocks series
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
			debug.FreeOSMemory()
		}
		b.setupClock = 0
		if err := build(); err != nil {
			return nil, err
		}
		clocks.add(b.setupClock)
	}
	return clocks, nil
}

// kindRows reports each kind of operation under the name later issues use
// for it: <kernel>_ms, and mutate_p50_ms for apply.
func kindRows(kind map[string]series) []row {
	var out []row
	for _, k := range []string{"bfs", "cc", "pagerank", "prefixsum", "mergesort"} {
		if s, ok := kind[k]; ok {
			out = append(out, s.timing(k+"_ms", inMS))
		}
	}
	if s, ok := kind["apply"]; ok {
		out = append(out, s.timing("mutate_p50_ms", inMS))
	}
	return out
}

// layerCounts are the counters a batch workload's traced passes read at the
// layer boundaries.
type layerCounts struct {
	passes        int
	capsules      map[string]series // per kind, per run
	words         map[string]series
	sched         ppm.SchedStats // summed over the traced passes
	refills       int64
	persistPoints int64
	heapHighWords int64
}

// measureBatch runs passes until the run's seconds are spent and at least
// minPasses are done. In a traced run odd passes are traced and even ones are
// not, interleaved so that both see the same machine state and the gap
// between their medians is the tracing overhead.
func (b *bench) measureBatch(env *batchEnv) (plain, traced *passResult, counts *layerCounts) {
	plain, traced = newPassResult(), newPassResult()
	counts = &layerCounts{capsules: map[string]series{}, words: map[string]series{}}
	budget := b.cfg.budget()
	start := time.Now()
	for pass := 0; pass < b.sz.minPasses || time.Since(start) < budget; pass++ {
		if b.tr == nil || pass%2 == 0 {
			b.onePass(env, plain, nil, pass, nil)
			continue
		}
		sched0, alloc0, points0 := env.rt.SchedStats(), env.rt.AllocStats(), env.rt.PersistPoints()
		last := env.rt.Stats()
		b.onePass(env, traced, b.tr, pass, func(op *kernelOp) {
			now := env.rt.Stats()
			counts.capsules[op.kind] = append(counts.capsules[op.kind], float64(now.Capsules-last.Capsules))
			counts.words[op.kind] = append(counts.words[op.kind], float64(now.Work-last.Work))
			last = now
		})
		sched1, alloc1 := env.rt.SchedStats(), env.rt.AllocStats()
		counts.passes++
		counts.sched.StealTries += sched1.StealTries - sched0.StealTries
		counts.sched.Steals += sched1.Steals - sched0.Steals
		counts.sched.Parks += sched1.Parks - sched0.Parks
		counts.refills += alloc1.Refills - alloc0.Refills
		counts.persistPoints += env.rt.PersistPoints() - points0
		counts.heapHighWords = alloc1.HeapWords
	}
	return plain, traced, counts
}

// batchLayers produces a batch workload's per-layer rows: what the traced
// passes counted, the baselines, the control passes, and the probes that
// belong to the layers this workload leans on.
func (b *bench) batchLayers(w batchSpec, in *batchInputs, env *batchEnv, plain, traced *passResult, counts *layerCounts) error {
	b.add(ratioMinusOne("trace.overhead_share", traced.pass.median(), plain.pass.median(), "untraced_pass", inMS))
	spans := b.tr.durations()
	if w.graph.kind != "" {
		b.add(spans["generate"][:1].timing("graph.generate_ms", inMS),
			spans["build"][:1].timing("graph.build_ms", inMS))
	}

	passes := float64(counts.passes)
	b.add(
		scalar("native.steal_tries", float64(counts.sched.StealTries)/passes, "count"),
		scalar("native.steal_grabs", float64(counts.sched.Steals)/passes, "count"),
		ratio("native.steal_hit_share", float64(counts.sched.Steals), float64(counts.sched.StealTries), "steal_tries", inCount),
		scalar("native.parks", float64(counts.sched.Parks)/passes, "count"),
		scalar("native.alloc_refills", float64(counts.refills)/passes, "count"),
		scalar("native.heap_hw_words", float64(counts.heapHighWords), "count"),
	)

	base := b.timeBaselines(w, in, env)
	if w.durable {
		return b.durableLayers(w, in, env, plain, counts)
	}

	// The P=1 control pass: the same programs on one worker.
	one, err := b.controlPass(w, in, 1)
	if err != nil {
		return err
	}
	for _, m := range w.mix {
		k, layer := m.kind, env.op(m.kind).layer+"."
		p1, pn := one.kind[k].median(), plain.kind[k].median()
		b.add(
			one.kind[k].timing(layer+k+"_p1_ms", inMS),
			ratio(layer+k+"_speedup", p1, pn, fmt.Sprintf("%s@P=%d", k, b.cfg.procs), inMS),
			ratio(layer+k+"_vs_baseline", p1, base[k].median(), "baseline", inMS),
			counts.capsules[k].timing(layer+k+"_capsules", inNS).as("count"),
			counts.words[k].timing(layer+k+"_words", inNS).as("count"),
		)
	}
	// Each probe set rides with the workload that leans on its layer most.
	switch w.name {
	case "graph-rand":
		b.accessorProbes()
	case "graph-grid":
		b.schedulerProbes()
	case "forkjoin":
		b.modelProbes()
	}
	return nil
}

// as relabels a row whose samples were counts, not nanoseconds.
func (r row) as(unit string) row {
	r.Unit = unit
	return r
}

// ratioMinusOne is num÷den−1, for overhead shares.
func ratioMinusOne(name string, num, den float64, base string, per float64) row {
	r := ratio(name, num, den, base, per)
	r.Value--
	r.Q1, r.Q3 = r.Value, r.Value
	return r
}

// controlPass builds the workload again, volatile, at the given width and
// with any extra options, runs controlReps passes and returns their timings.
// Its operations count like any others.
func (b *bench) controlPass(w batchSpec, in *batchInputs, procs int, extra ...ppm.Option) (*passResult, error) {
	env, err := b.buildBatch(w, in, procs, "", extra...)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := newPassResult()
	for i := 0; i < b.sz.controlReps; i++ {
		b.onePass(env, out, nil, i, nil)
	}
	b.verifyBatch(env)
	return out, nil
}

// timeBaselines times the plain-Go reference of every kernel of the mix on
// the workload's own input and reports baseline.<kernel>_ms.
func (b *bench) timeBaselines(w batchSpec, in *batchInputs, env *batchEnv) map[string]series {
	g := env.g
	refs := map[string]func(){
		"bfs":       func() { baselineBFS(g, in.source) },
		"cc":        func() { baselineCC(g) },
		"pagerank":  func() { rev := g.Reverse(); baselinePageRank(g, rev, pagerankIters) },
		"prefixsum": func() { baselinePrefixSum(in.prefixIn) },
		"mergesort": func() { baselineSort(in.sortIn) },
	}
	names := map[string]string{"mergesort": "sort"}
	out := map[string]series{}
	for _, m := range w.mix {
		ref, ok := refs[m.kind]
		if !ok {
			continue
		}
		var s series
		speed := b.speed()
		for i := 0; i < b.sz.controlReps; i++ {
			t0 := time.Now()
			ref()
			s.add(time.Since(t0))
		}
		s = s.scaled(speed)
		out[m.kind] = s
		name := m.kind
		if alias, ok := names[name]; ok {
			name = alias
		}
		b.add(s.timing("baseline."+name+"_ms", inMS))
	}
	return out
}

// durableLayers is graph-durable's share of batchLayers: the volatile and
// soft-fault controls on the same input, the recovery drill on the region
// the measured passes wrote, and the persistence probes.
func (b *bench) durableLayers(w batchSpec, in *batchInputs, env *batchEnv, plain *passResult, counts *layerCounts) error {
	volatile, err := b.controlPass(w, in, b.cfg.procs)
	if err != nil {
		return err
	}
	for _, m := range w.mix {
		k := m.kind
		b.add(ratio("durable."+k+"_overhead", plain.kind[k].median(), volatile.kind[k].median(), "volatile", inMS))
	}
	b.add(
		volatile.kind["apply"].timing("graph.apply_ms", inMS),
		scalar("durable.persist_points", float64(counts.persistPoints)/float64(counts.passes), "count"),
	)

	// Soft faults at f=1e-5 against f=0, BFS only: the replay overhead the
	// paper bounds. Restarts are printed beside the ratio.
	const faultRate = 1e-5
	faulty, err := b.buildBatch(batchSpec{name: w.name, graph: w.graph, mix: []mixEntry{{"bfs", 1}}},
		in, b.cfg.procs, "", ppm.WithFaultRate(faultRate))
	if err != nil {
		return err
	}
	faults := newPassResult()
	restarts0 := faulty.rt.Stats().Restarts
	for i := 0; i < b.sz.controlReps; i++ {
		b.onePass(faulty, faults, nil, i, nil)
	}
	restarts := faulty.rt.Stats().Restarts - restarts0
	b.verifyBatch(faulty)
	faulty.close()
	r := ratio("native.fault_overhead", faults.kind["bfs"].median(), volatile.kind["bfs"].median(), "bfs@f=0", inMS)
	r.Base += fmt.Sprintf(" f=%g restarts/run=%.1f", faultRate, float64(restarts)/float64(b.sz.controlReps))
	b.add(r)

	if err := env.rt.Close(); err != nil {
		return fmt.Errorf("closing the durable runtime: %w", err)
	}
	b.recoveryDrill(w, in, env)
	b.persistenceProbes()
	return nil
}

// recoveryDrill times what a restarted process does with the region file of
// the cleanly closed runtime env: Recover, the same Build calls, Resume, and
// the resident graph's resync, which must land on the last committed epoch
// with the expected arcs.
func (b *bench) recoveryDrill(w batchSpec, in *batchInputs, env *batchEnv) {
	commits := env.res.Epoch()
	if st, err := os.Stat(env.region); err == nil {
		b.add(scalar("durable.region_bytes", float64(st.Size()), "B"))
	}
	b.led.attempt()
	again := &batchEnv{g: env.g, region: env.region}
	var err error
	d := b.call("durable", "recover", 0, func() {
		if again.rt, err = ppm.Recover(env.region, ppm.WithSeed(b.cfg.seed)); err != nil {
			return
		}
		b.register(w, in, again)
		var done bool
		if done, err = again.rt.Resume(); err == nil && !done {
			err = fmt.Errorf("resume did not complete")
		}
		if err == nil {
			err = again.res.Recovered()
		}
	})
	defer again.close()
	if err == nil {
		err = sameResident(again.res, env.g, in.edges, commits)
	}
	b.led.check("recovery", err)
	b.add(series{float64(d)}.timing("durable.recover_ms", inMS))
}
