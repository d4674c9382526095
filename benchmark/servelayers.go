package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/ppm"
	"repro/ppm/graph"
	"repro/ppm/serve"
)

const (
	hitProbes     = 20000 // in-process memo hits timed
	healthzProbes = 2000
	refillProbes  = 6 // commits of the in-process write-path probe; even, so the graph ends where it began
	kernelProbes  = 10
)

// serveLayers produces a serve workload's per-layer rows: the server's own
// counters over the measured phase, the client and handler spans of its
// traced slices, and the same operations issued in-process — no HTTP — so that
// what the listener and codec add can be told from what the server does.
func (b *bench) serveLayers(rw bool, in *serveInputs, env *serveEnv, plain, traced *serveSeries, stats [2]serve.Stats, h *commits) error {
	b.add(ratioMinusOne("trace.overhead_share", traced.p50.median(), plain.p50.median(), "untraced_read", inUS))

	before, after := stats[0], stats[1]
	runs := float64(after.Runs - before.Runs)
	key := in.spec.Key()
	b.add(
		scalar("serve.runs", runs, "count"),
		ratio("serve.hit_share", float64(after.CacheHits-before.CacheHits), float64(after.Answered-before.Answered), "answered", inCount),
		scalar("serve.shed_429", float64(after.Shed429-before.Shed429), "count"),
		scalar("serve.shed_503", float64(after.Shed503-before.Shed503), "count"),
		scalar("serve.mutations", float64(after.Mutations-before.Mutations), "count"),
		scalar("serve.epochs", float64(after.Epochs[key]-before.Epochs[key]), "count"),
	)
	if runs > 0 {
		b.add(ratio("serve.coalesce_ratio", float64(after.RunQueries-before.RunQueries), runs, "runs", inCount))
	}

	whole, self := b.tr.durations(), b.tr.selfTimes()
	b.add(
		whole["client"].timing("http.query_hit_us", inUS),
		whole["handler"].timing("http.handler_us", inUS),
		self["client"].timing("http.client_us", inUS),
	)

	// The same reads, in-process. Every key is touched once first: the traced
	// phase of serve-rw ends on a whole epoch, which leaves them hot already,
	// but the probe should not depend on that.
	c := b.newClient(in, env.plain.URL, len(in.keys), nil)
	defer c.http.CloseIdleConnections()
	for _, k := range in.keys {
		if _, err := b.submit(in, env, k); err != nil {
			return err
		}
	}
	var hits series
	for i := 0; i < hitProbes; i++ {
		k := c.nextKey()
		t0 := time.Now()
		res, err := b.submit(in, env, k)
		hits.add(time.Since(t0))
		if err == nil && !res.Cached {
			b.led.fail("in-process %v: expected a memo hit", k)
		}
	}
	b.add(
		hits.timing("serve.submit_hit_us", inUS),
		minus("http.overhead_us", whole["handler"], hits, inUS),
	)

	var healthz series
	for i := 0; i < healthzProbes; i++ {
		b.led.attempt()
		t0 := time.Now()
		resp, err := c.http.Get(env.plain.URL + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		if b.led.check("healthz", err) {
			healthz.add(time.Since(t0))
		}
	}
	b.add(healthz.timing("http.healthz_us", inUS))
	if !rw {
		return nil
	}
	return b.writePathProbes(in, env, h)
}

// submit issues one read in-process as a counted operation and checks its
// answer against the baseline.
func (b *bench) submit(in *serveInputs, env *serveEnv, k readKey) (*serve.Result, error) {
	b.led.attempt()
	res, err := env.srv.Submit(serve.Query{Graph: in.spec, Kind: k.kind, Source: k.source})
	if err == nil {
		err = in.checkAnswer(k, res)
	}
	b.led.check("in-process read", err)
	return res, err
}

// writePathProbes walks the write path one caller at a time, in-process: a
// commit, the first cold BFS after it, and the time until all 18 keys are
// hot again; then the two kernels underneath — Resident.Apply and MultiBFS —
// on a runtime of the benchmark's own holding the same graph, so that the
// server's share of each is the difference.
func (b *bench) writePathProbes(in *serveInputs, env *serveEnv, h *commits) error {
	var mutate, cold, refill series
	for i := 0; i < refillProbes; i++ {
		m := serve.Mutation{Graph: in.spec, Insert: in.edges}
		if h.epoch%2 == 1 {
			m = serve.Mutation{Graph: in.spec, Delete: in.edges}
		}
		b.led.attempt()
		t0 := time.Now()
		res, err := env.srv.Mutate(m)
		mutate.add(time.Since(t0))
		if err == nil {
			err = h.committed(in, res)
		}
		if !b.led.check("in-process mutate", err) {
			return err
		}
		t0 = time.Now()
		for j, k := range in.keys {
			t1 := time.Now()
			res, err := b.submit(in, env, k)
			if j == 0 {
				cold.add(time.Since(t1))
				if err == nil && res.Cached {
					b.led.fail("in-process %v right after a commit: expected a cold run", k)
				}
			}
		}
		refill.add(time.Since(t0))
	}

	apply, one, eight, err := b.kernelProbes(in)
	if err != nil {
		return err
	}
	b.add(
		mutate.timing("serve.mutate_ms", inMS),
		cold.timing("serve.submit_cold_bfs_ms", inMS),
		refill.timing("serve.epoch_refill_ms", inMS),
		apply.timing("graph.apply_ms", inMS),
		one.timing("graph.msbfs1_ms", inMS),
		eight.timing("graph.msbfs8_ms", inMS),
		ratio("graph.msbfs_amortization", eight.median(), 8*one.median(), "8*msbfs1", inMS),
		minus("serve.cold_overhead_ms", cold, one, inMS),
		minus("serve.mutate_overhead_ms", mutate, apply, inMS),
	)
	return nil
}

// kernelProbes times Resident.Apply and MultiBFS batches of 1 and 8 sources
// on a volatile runtime built the way the server builds an entry.
func (b *bench) kernelProbes(in *serveInputs) (apply, one, eight series, err error) {
	cfg := serve.Default()
	g := in.graphs[0]
	rt := ppm.New(ppm.WithEngine(ppm.EngineNative), ppm.WithProcs(b.cfg.procs),
		ppm.WithSeed(b.cfg.seed), ppm.WithMemWords(cfg.MemWords))
	defer rt.Close()
	res := graph.NewResident("probe", g, cfg.EpochSlots, g.Arcs()+g.Arcs()/4+2*cfg.MutBatchCap, cfg.MutBatchCap)
	bfs := graph.NewMultiBFSResident("probe", res, cfg.MaxBatch)
	res.Build(rt)
	bfs.Build(rt)

	timed := func(s *series, what string, op func() (bool, error)) error {
		b.led.attempt()
		t0 := time.Now()
		ok, err := op()
		d := time.Since(t0)
		if err == nil && !ok {
			err = fmt.Errorf("run did not complete")
		}
		if !b.led.check(what, err) {
			return fmt.Errorf("%s: %w", what, err)
		}
		if s != nil {
			s.add(d)
		}
		return nil
	}
	commits := uint64(0)
	applyOnce := func(s *series) error {
		batch := graph.MutationBatch{Insert: in.edges}
		if commits%2 == 1 {
			batch = graph.MutationBatch{Delete: in.edges}
		}
		commits++
		return timed(s, "apply probe", func() (bool, error) { return res.Apply(batch) })
	}
	batchOf := func(s *series, k, rep int) error {
		srcs := make([]int, k)
		for i := range srcs {
			srcs[i] = in.sources[(rep+i)%len(in.sources)]
		}
		if err := timed(s, fmt.Sprintf("msbfs%d probe", k), func() (bool, error) { return bfs.RunBatch(srcs) }); err != nil {
			return err
		}
		// Slot 0 of every batch against the baseline on the mirror of the
		// epoch the batch ran at.
		err := sameWords(bfs.Levels(0), baselineBFS(in.graphs[commits%2], srcs[0]))
		b.led.check("msbfs probe", err)
		return err
	}
	// rep -2 and -1 warm up (two applies leave the graph as it was).
	for rep := -2; rep < kernelProbes; rep++ {
		a, o, e := &apply, &one, &eight
		if rep < 0 {
			a, o, e = nil, nil, nil
		}
		if err = applyOnce(a); err != nil {
			return
		}
		if err = batchOf(o, 1, max(rep, 0)); err != nil {
			return
		}
		if rep%2 == 0 { // half as many wide batches: they take eight times as long
			if err = batchOf(e, 8, max(rep, 0)); err != nil {
				return
			}
		}
	}
	if err = res.Recovered(); err == nil {
		err = sameResident(res, g, in.edges, commits)
	}
	b.led.check("apply probe verify", err)
	return apply, one, eight, nil
}
