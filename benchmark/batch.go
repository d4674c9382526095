package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/ppm"
	"repro/ppm/graph"
)

// A batch workload times calls into the kernels directly: a caller that
// holds a resident runtime and runs one analytics pass after another. One
// pass is the workload's fixed mix of kernel runs; passes repeat until the
// run's seconds are spent.

// mixEntry is one kernel of a pass and how often the pass runs it.
type mixEntry struct {
	kind string // bfs, cc, pagerank, prefixsum, mergesort, apply
	per  int
}

// batchSpec describes one batch workload.
type batchSpec struct {
	name    string
	graph   graphSpec // zero kind: no graph (forkjoin)
	mix     []mixEntry
	durable bool // the runtime's memory is a region file
}

// pagerankIters is the iteration count of every PageRank the benchmark runs,
// graph.DefaultIters and the server's default alike.
const pagerankIters = graph.DefaultIters

func (z sizes) batchSpecs() []batchSpec {
	return []batchSpec{
		{name: "graph-rand", graph: graphSpec{"rand", z.randN, z.randM},
			mix: []mixEntry{{"bfs", 2}, {"cc", 1}, {"pagerank", 1}}},
		{name: "graph-grid", graph: graphSpec{"grid", z.gridN, 0},
			mix: []mixEntry{{"bfs", 2}, {"cc", 1}, {"pagerank", 4}}},
		{name: "forkjoin",
			mix: []mixEntry{{"prefixsum", 1}, {"mergesort", 1}}},
		{name: "graph-durable", graph: graphSpec{"rand", z.durableN, z.durableM}, durable: true,
			mix: []mixEntry{{"bfs", 1}, {"cc", 1}, {"pagerank", 1}, {"apply", 2}}},
	}
}

// batchInputs is everything a batch workload's programs receive, generated
// from the seed before any timer starts.
type batchInputs struct {
	graphSeed uint64 // graph.Generate's seed, chosen by graphSeedFor
	source    int
	edges     [][2]int // the set the apply operations insert and delete in turn
	prefixIn  []uint64
	sortIn    []uint64
}

func (b *bench) batchInputs(w batchSpec) (*batchInputs, error) {
	in := &batchInputs{}
	if w.graph.kind == "" {
		in.prefixIn = randomWords(b.sz.arrayN, b.cfg.seed, 1000)
		in.sortIn = randomWords(b.sz.arrayN, b.cfg.seed+1, 1_000_000)
		return in, nil
	}
	var err error
	if in.graphSeed, err = graphSeedFor(w.graph, b.cfg.seed); err != nil {
		return nil, err
	}
	g, err := graph.Generate(w.graph.kind, w.graph.n, w.graph.m, in.graphSeed)
	if err != nil {
		return nil, err
	}
	srcs, err := pickSources(g, w.graph, 1, b.cfg.seed)
	if err != nil {
		return nil, err
	}
	in.source = srcs[0]
	in.edges = pickEdges(g, b.sz.batchEdges, b.cfg.seed)
	return in, nil
}

// kernelOp is one kind of operation of a built workload.
type kernelOp struct {
	mixEntry
	layer string
	// run issues one operation and returns nil when it completed.
	run func() error
	// verify checks the state the last operation left: the kernel's own
	// Verify and equality with the benchmark's baseline.
	verify func() error
}

// batchEnv is a built workload: one resident runtime and its programs.
type batchEnv struct {
	rt     *ppm.Runtime
	g      *graph.Graph
	res    *graph.Resident
	ops    []*kernelOp
	region string // region file of a durable runtime
}

func (e *batchEnv) close() {
	if e != nil && e.rt != nil {
		e.rt.Close()
	}
}

func (e *batchEnv) op(kind string) *kernelOp {
	for _, op := range e.ops {
		if op.kind == kind {
			return op
		}
	}
	return nil
}

// memWords sizes a runtime for the workload: every program loads its own CSR
// copy, the resident ring holds two, prefixsum keeps a block-spaced sum tree
// (4 words per input word) beside its arrays and mergesort three arrays.
func (w batchSpec) memWords(g *graph.Graph, z sizes) int {
	need := 1 << 21
	if g != nil {
		need += 4*(g.N+1+g.Arcs()) + 24*g.N + 2*(g.Arcs()/4+2*z.batchEdges)
	} else {
		need += 10 * z.arrayN
	}
	return need
}

// buildBatch sets the workload up on a fresh runtime of the given width:
// generate, ppm.New, Build, and one warm-up of every operation. Each call
// into the system goes through b.call, so it is on the set-up clock and, in a
// traced run, a span. extra options select the control variants (fault
// injection); region is the durable runtime's file, empty for a volatile one.
func (b *bench) buildBatch(w batchSpec, in *batchInputs, procs int, region string, extra ...ppm.Option) (*batchEnv, error) {
	env := &batchEnv{region: region}
	root := b.tr.begin("benchmark", "setup", 0, 0)
	defer b.tr.end(root)
	if w.graph.kind != "" {
		var err error
		b.call("graph", "generate", root, func() {
			env.g, err = graph.Generate(w.graph.kind, w.graph.n, w.graph.m, in.graphSeed)
		})
		if err != nil {
			return nil, err
		}
	}
	opts := append([]ppm.Option{
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(procs),
		ppm.WithSeed(b.cfg.seed),
		ppm.WithMemWords(w.memWords(env.g, b.sz)),
	}, extra...)
	if region != "" {
		opts = append(opts, ppm.WithNativeDurable(region))
	}
	b.call("ppm", "new", root, func() { env.rt = ppm.New(opts...) })
	b.call("graph", "build", root, func() { b.register(w, in, env) })
	for _, op := range env.ops {
		for i := 0; i < op.per; i++ {
			var err error
			b.call(op.layer, "warmup-"+op.kind, root, func() { err = op.run() })
			if err != nil {
				env.close()
				return nil, fmt.Errorf("%s warm-up: %w", op.kind, err)
			}
		}
	}
	return env, nil
}

// register builds the workload's programs on env.rt, in mix order. The
// durable recovery probe calls it again on the recovered runtime: same
// programs, same order, which is what ppm.Recover asks for.
func (b *bench) register(w batchSpec, in *batchInputs, env *batchEnv) {
	env.ops = nil
	for _, m := range w.mix {
		op := &kernelOp{mixEntry: m, layer: "graph"}
		var algo ppm.Algorithm
		var want func() []uint64
		g := env.g
		switch m.kind {
		case "bfs":
			algo = graph.BFS("bench", g, in.source)
			want = func() []uint64 { return baselineBFS(g, in.source) }
		case "cc":
			algo = graph.Components("bench", g)
			want = func() []uint64 { return baselineCC(g) }
		case "pagerank":
			algo = graph.PageRank("bench", g, pagerankIters)
			want = func() []uint64 { return baselinePageRank(g, g.Reverse(), pagerankIters) }
		case "prefixsum":
			op.layer = "ppm"
			algo = ppm.PrefixSum("bench", in.prefixIn, 0)
			want = func() []uint64 { return baselinePrefixSum(in.prefixIn) }
		case "mergesort":
			op.layer = "ppm"
			algo = ppm.MergeSort("bench", in.sortIn, 1024)
			want = func() []uint64 { return baselineSort(in.sortIn) }
		case "apply":
			b.registerApply(in, env, op)
			env.ops = append(env.ops, op)
			continue
		default:
			panic("benchmark: unknown kernel " + m.kind)
		}
		algo.Build(env.rt)
		op.run = func() error {
			if !algo.Run() {
				return fmt.Errorf("%s: run did not complete", algo.Name())
			}
			return nil
		}
		op.verify = func() error {
			if err := algo.Verify(); err != nil {
				return err
			}
			if err := sameWords(algo.Output(), want()); err != nil {
				return fmt.Errorf("%s against baseline: %w", algo.Name(), err)
			}
			return nil
		}
		env.ops = append(env.ops, op)
	}
}

// registerApply builds the resident graph and the operation that commits one
// batch on it: the edge set is inserted by even commits and deleted by odd
// ones, so the graph alternates between g and g plus the set.
func (b *bench) registerApply(in *batchInputs, env *batchEnv, op *kernelOp) {
	g := env.g
	res := graph.NewResident("bench", g, 2, 0, len(in.edges))
	res.Build(env.rt)
	env.res = res
	commits := uint64(0)
	op.run = func() error {
		batch := graph.MutationBatch{Insert: in.edges}
		if commits%2 == 1 {
			batch = graph.MutationBatch{Delete: in.edges}
		}
		ok, err := res.Apply(batch)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("apply: run did not complete")
		}
		commits++
		return nil
	}
	op.verify = func() error {
		// Recovered re-reads the committed epoch and its CSR slot from the
		// runtime's memory, so what is compared is what the program wrote.
		if err := res.Recovered(); err != nil {
			return err
		}
		return sameResident(res, g, in.edges, commits)
	}
}

// sameResident checks a resident graph against the benchmark's own mirror
// after the given number of commits.
func sameResident(res *graph.Resident, g *graph.Graph, edges [][2]int, commits uint64) error {
	if got := res.Epoch(); got != commits {
		return fmt.Errorf("resident epoch %d after %d commits", got, commits)
	}
	want := g
	if commits%2 == 1 {
		var err error
		if want, err = (graph.MutationBatch{Insert: edges}).ApplyTo(g); err != nil {
			return err
		}
	}
	cur := res.Current()
	if err := sameWords(cur.Offs, want.Offs); err != nil {
		return fmt.Errorf("resident offsets: %w", err)
	}
	if err := sameWords(cur.Adj, want.Adj); err != nil {
		return fmt.Errorf("resident arcs: %w", err)
	}
	return nil
}

// passResult is what the measured phase of a batch workload produced.
type passResult struct {
	elapsed time.Duration
	ops     int               // completed operations
	pass    series            // wall of each whole pass
	kind    map[string]series // wall of each operation, by kind
}

func newPassResult() *passResult { return &passResult{kind: map[string]series{}} }

// onePass calibrates, then runs the mix once; every timing it records is
// scaled by the calibration (calib.go). tr is nil for an untraced pass; after,
// when not nil, sees every completed operation (the traced passes read
// counters there).
func (b *bench) onePass(env *batchEnv, out *passResult, tr *tracer, passNo int, after func(op *kernelOp)) {
	speed := b.speed()
	id := tr.begin("benchmark", "pass", 0, int64(passNo))
	start := time.Now()
	complete := true
	for _, op := range env.ops {
		for i := 0; i < op.per; i++ {
			b.led.attempt()
			sp := tr.begin(op.layer, op.kind, id, int64(passNo))
			t0 := time.Now()
			err := op.run()
			d := time.Since(t0)
			tr.end(sp)
			if !b.led.check(op.kind, err) {
				complete = false
				continue
			}
			out.ops++
			out.kind[op.kind] = append(out.kind[op.kind], float64(d)*speed)
			if after != nil {
				after(op)
			}
		}
	}
	tr.end(id)
	wall := float64(time.Since(start)) * speed
	out.elapsed += time.Duration(wall)
	if complete {
		out.pass = append(out.pass, wall)
	}
}

// verifyBatch checks every operation's final state.
func (b *bench) verifyBatch(env *batchEnv) {
	for _, op := range env.ops {
		b.led.check(op.kind+" verify", op.verify())
	}
}

// regionPath names a fresh region file in the run's temporary directory.
func (b *bench) regionPath(name string) string {
	b.regions++
	return filepath.Join(b.tmp, fmt.Sprintf("%s-%d.region", name, b.regions))
}
