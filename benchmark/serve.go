package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/ppm/graph"
	"repro/ppm/serve"
)

// A serve workload puts the query server behind a real HTTP listener and
// drives it with P closed-loop clients, one keep-alive connection each: a
// caller of an analytics service waits for its answer before asking again,
// and the sandbox has no cores to spare for more. Every client draws from
// one seeded mix — bfs 80 / cc 10 / pagerank 10 over a fixed pool of BFS
// sources that fits the server's level cache — so after the warm-up every
// read is a memo hit. serve-rw adds a mutation at a fixed cadence: each
// commit bumps the epoch and sends every key cold again.

// readMix is the share of each query kind, in percent.
const (
	mixBFS = 80
	mixCC  = 10
)

// answer is what the benchmark expects a read to carry.
type answer struct {
	reached  int
	depth    uint64
	checksum uint64
	extra    uint64
}

// readKey names one memo key of the server.
type readKey struct {
	kind   string
	source int
}

// serveInputs is what the server and its clients are given, and what the
// benchmark knows about the right answers.
type serveInputs struct {
	spec    serve.GraphSpec
	keys    []readKey          // the 18 keys: every pool source, cc, pagerank
	bodies  map[readKey][]byte // the /query request of each key
	mutate  [2][]byte          // the /mutate requests: insert the set, delete it
	edges   [][2]int           // the set
	graphs  [2]*graph.Graph    // host mirror: even epochs, odd epochs
	oracle  [2]map[readKey]answer
	sources []int
}

func (b *bench) serveInputs() (*serveInputs, error) {
	size := graphSpec{"rand", b.sz.serveN, b.sz.serveM}
	graphSeed, err := graphSeedFor(size, b.cfg.seed)
	if err != nil {
		return nil, err
	}
	g, err := graph.Generate(size.kind, size.n, size.m, graphSeed)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{
		// The server seeds the generator with spec.Seed ^ Config.Seed.
		spec:   serve.GraphSpec{Kind: size.kind, N: size.n, M: size.m, Seed: graphSeed ^ b.cfg.seed},
		bodies: map[readKey][]byte{},
	}
	if in.sources, err = pickSources(g, size, b.sz.sourcePool, b.cfg.seed); err != nil {
		return nil, err
	}
	in.edges = pickEdges(g, b.sz.batchEdges, b.cfg.seed)
	alt, err := graph.MutationBatch{Insert: in.edges}.ApplyTo(g)
	if err != nil {
		return nil, err
	}
	in.graphs = [2]*graph.Graph{g, alt}

	for _, s := range in.sources {
		in.keys = append(in.keys, readKey{"bfs", s})
	}
	in.keys = append(in.keys, readKey{"cc", 0}, readKey{"pagerank", 0})
	for _, k := range in.keys {
		in.bodies[k] = mustJSON(serve.Query{Graph: in.spec, Kind: k.kind, Source: k.source})
	}
	in.mutate[0] = mustJSON(serve.Mutation{Graph: in.spec, Insert: in.edges})
	in.mutate[1] = mustJSON(serve.Mutation{Graph: in.spec, Delete: in.edges})

	for parity, mirror := range in.graphs {
		in.oracle[parity] = map[readKey]answer{}
		for _, k := range in.keys {
			var a answer
			switch k.kind {
			case "bfs":
				a.reached, a.depth, a.checksum = bfsSummary(baselineBFS(mirror, k.source))
			case "cc":
				var comps int
				comps, a.checksum = ccSummary(baselineCC(mirror))
				a.extra = uint64(comps)
			case "pagerank":
				// The resident kernel sums a symmetric graph's own lists.
				a.checksum = rankChecksum(baselinePageRank(mirror, mirror, pagerankIters))
				a.extra = pagerankIters
			}
			in.oracle[parity][k] = a
		}
	}
	return in, nil
}

// checkAnswer holds a read's answer against the baseline on the host mirror
// of the epoch it was computed at.
func (in *serveInputs) checkAnswer(k readKey, res *serve.Result) error {
	want := in.oracle[res.Epoch%2][k]
	if res.Checksum != want.checksum || res.Reached != want.reached || res.MaxLevel != want.depth || res.Extra != want.extra {
		return fmt.Errorf("%v at epoch %d: answered reached=%d depth=%d extra=%d checksum=%#x, baseline %d %d %d %#x",
			k, res.Epoch, res.Reached, res.MaxLevel, res.Extra, res.Checksum,
			want.reached, want.depth, want.extra, want.checksum)
	}
	return nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// serveEnv is a built server with its listeners.
type serveEnv struct {
	srv    *serve.Server
	plain  *httptest.Server
	traced *httptest.Server // the same server behind the span middleware
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	e.plain.Close()
	if e.traced != nil {
		e.traced.Close()
	}
	e.srv.Close()
}

// buildServe sets a server up: serve.New, a listener, and a warm-up that
// touches every key once over HTTP, which builds the graph's entry and fills
// the memo. firstQuery receives the wall of the first query, the one that
// builds the entry.
func (b *bench) buildServe(in *serveInputs, firstQuery *series) (*serveEnv, error) {
	env := &serveEnv{}
	root := b.tr.begin("benchmark", "setup", 0, 0)
	defer b.tr.end(root)
	cfg := serve.Default()
	cfg.Procs, cfg.Seed = b.cfg.procs, b.cfg.seed
	b.call("serve", "new", root, func() {
		env.srv = serve.New(cfg)
		env.plain = httptest.NewServer(serve.Handler(env.srv))
	})
	if b.tr != nil {
		env.traced = httptest.NewServer(b.spanMiddleware(serve.Handler(env.srv)))
	}
	c := b.newClient(in, env.plain.URL, 0, nil)
	defer c.http.CloseIdleConnections()
	for i, k := range in.keys {
		var err error
		d := b.call("serve", "warmup-"+k.kind, root, func() { _, err = c.read(k) })
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up %v: %w", k, err)
		}
		if i == 0 {
			firstQuery.add(d)
		}
	}
	for ek, res := range c.first {
		if err := in.checkAnswer(ek.readKey, &res); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// spanMiddleware records the handler's side of every request of a traced
// phase: a span caused by the client's span, sharing its request id.
func (b *bench) spanMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		id := b.tr.begin("http", "handler", parent, req)
		next.ServeHTTP(w, r)
		b.tr.end(id)
	})
}

// client is one closed-loop caller: its own connection, its own random
// stream, and its own record of what it saw.
type client struct {
	in   *serveInputs
	url  string
	http *http.Client
	rnd  *rng.Xoshiro256
	tr   *tracer
	id   int64

	reads     series
	mutations series
	issued    int64                     // requests sent, for the request id
	done      int                       // successful operations
	first     map[epochKey]serve.Result // the first answer per key and epoch
}

type epochKey struct {
	readKey
	epoch uint64
}

func (b *bench) newClient(in *serveInputs, url string, id int, tr *tracer) *client {
	return &client{in: in, url: url, tr: tr, id: int64(id),
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		rnd:   rng.NewXoshiro256(b.cfg.seed ^ streamClient ^ uint64(id+1)),
		first: map[epochKey]serve.Result{}}
}

// nextKey draws the next read from the mix.
func (c *client) nextKey() readKey {
	switch r := c.rnd.Intn(100); {
	case r < mixBFS:
		return readKey{"bfs", c.in.sources[c.rnd.Intn(len(c.in.sources))]}
	case r < mixBFS+mixCC:
		return readKey{"cc", 0}
	}
	return readKey{"pagerank", 0}
}

// post sends one request and decodes the answer; any status but 200 is an
// error. In a traced phase it is a client span the handler's span hangs off.
func (c *client) post(path string, body []byte) (serve.Result, time.Duration, error) {
	var res serve.Result
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return res, 0, err
	}
	id := 0
	c.issued++
	if c.tr != nil {
		reqID := c.id<<40 | c.issued
		id = c.tr.begin("http", "client", 0, reqID)
		req.Header.Set("X-Bench-Span", strconv.Itoa(id))
		req.Header.Set("X-Bench-Req", strconv.FormatInt(reqID, 10))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.tr.end(id)
		return res, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	c.tr.end(id)
	if err != nil {
		return res, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, d, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return res, d, json.Unmarshal(data, &res)
}

// read issues one query and checks the answer against what this client has
// seen for the same key and epoch; the first answer per key and epoch is
// kept for the comparison with the baseline after the run.
func (c *client) read(k readKey) (time.Duration, error) {
	res, d, err := c.post("/query", c.in.bodies[k])
	if err != nil {
		return d, err
	}
	ek := epochKey{k, res.Epoch}
	if was, seen := c.first[ek]; !seen {
		c.first[ek] = res
	} else if was.Checksum != res.Checksum {
		return d, fmt.Errorf("%v at epoch %d: checksum %#x, first answer had %#x", k, res.Epoch, res.Checksum, was.Checksum)
	}
	return d, nil
}

// commits is the server's mutation history as the clients drive it: one
// commit at a time, each expected to advance the epoch by exactly one.
type commits struct {
	mu    sync.Mutex
	epoch uint64
}

// committed records one commit and checks its answer: the next epoch, the
// batch size and the mirror's arc total.
func (h *commits) committed(in *serveInputs, res *serve.Result) error {
	h.epoch++
	wantArcs := uint64(in.graphs[h.epoch%2].Arcs())
	if res.Epoch != h.epoch || res.Extra != uint64(len(in.edges)) || res.Checksum != wantArcs {
		return fmt.Errorf("commit %d answered epoch %d, %d edges, %d arcs; want %d edges, %d arcs",
			h.epoch, res.Epoch, res.Extra, res.Checksum, len(in.edges), wantArcs)
	}
	return nil
}

// mutate commits the next batch: the edge set goes in on even commits and
// out on odd ones.
func (c *client) mutate(h *commits) (time.Duration, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	res, d, err := c.post("/mutate", c.in.mutate[h.epoch%2])
	if err != nil {
		return d, err
	}
	return d, h.committed(c.in, &res)
}

// phaseResult is one slice of a serve workload's measured phase.
type phaseResult struct {
	elapsed   time.Duration
	ops       int
	reads     series
	mutations series
}

// serveSeries is what the slices add up to, every timing scaled by its
// slice's calibration: one throughput, one median and one 99th percentile of
// read latency per slice, and every commit's latency.
type serveSeries struct {
	qps, p50, p99 series
	mutations     series
}

func (ss *serveSeries) add(ph *phaseResult, speed float64) {
	sorted := ph.reads.sorted()
	ss.qps = append(ss.qps, float64(ph.ops)/ph.elapsed.Seconds()/speed)
	ss.p50 = append(ss.p50, quantile(sorted, 0.5)*speed)
	ss.p99 = append(ss.p99, quantile(sorted, 0.99)*speed)
	ss.mutations = append(ss.mutations, ph.mutations.scaled(speed)...)
}

// servePhase runs the clients against url for at least d. With mutateEvery
// set, operation k of the phase (clients share the count) is a mutation when
// k is a multiple of it, the phase starts with one, and it ends where the
// next would start — a whole number of epochs, so that the phase's
// throughput is the bill of one epoch and not of where the clock cut it.
func (b *bench) servePhase(in *serveInputs, url string, tr *tracer, d time.Duration, mutateEvery int, h *commits) *phaseResult {
	out := &phaseResult{}
	var next atomic.Int64
	var stop atomic.Bool
	clients := make([]*client, b.cfg.procs)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		c := b.newClient(in, url, i, tr)
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.http.CloseIdleConnections()
			for !stop.Load() {
				k := next.Add(1) - 1
				late := time.Since(start) >= d
				if mutateEvery > 0 && k%int64(mutateEvery) == 0 {
					if late && k > 0 {
						stop.Store(true)
						return
					}
					b.led.attempt()
					lat, err := c.mutate(h)
					if b.led.check("mutate", err) {
						c.mutations.add(lat)
						c.done++
					}
					continue
				}
				if mutateEvery == 0 && late {
					return
				}
				b.led.attempt()
				lat, err := c.read(c.nextKey())
				if b.led.check("read", err) {
					c.reads.add(lat)
					c.done++
				}
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)

	merged := map[epochKey]serve.Result{}
	for _, c := range clients {
		out.ops += c.done
		out.reads = append(out.reads, c.reads...)
		out.mutations = append(out.mutations, c.mutations...)
		for ek, res := range c.first {
			if other, seen := merged[ek]; seen && other.Checksum != res.Checksum {
				b.led.fail("%v at epoch %d: clients saw checksums %#x and %#x", ek.readKey, ek.epoch, other.Checksum, res.Checksum)
			}
			merged[ek] = res
		}
	}
	// The first answer of every key and epoch, against the baseline on the
	// host mirror of that epoch.
	for ek, res := range merged {
		b.led.check("read", in.checkAnswer(ek.readKey, &res))
	}
	return out
}

// runServe is one serve workload, start to finish.
func (b *bench) runServe(rw bool) error {
	in, err := b.serveInputs()
	if err != nil {
		return err
	}
	var env *serveEnv
	var firstQuery series
	setup, err := b.repeatSetup(
		func() (err error) { env, err = b.buildServe(in, &firstQuery); return err },
		func() { env.close() })
	if err != nil {
		return err
	}
	defer func() { env.close() }()

	// The measured phase is cut into slices, each behind its own calibration
	// (calib.go): a tenth of the seconds on serve-hot, one epoch on serve-rw,
	// until the seconds are spent and minPasses slices are done. A traced run
	// traces every other slice.
	mutateEvery, slice := 0, b.cfg.budget()/10
	if rw {
		mutateEvery, slice = b.sz.mutateEvery, 0
	}
	history := &commits{}
	plain, traced := &serveSeries{}, &serveSeries{}
	before := env.srv.Stats()
	start := time.Now()
	for n := 0; n < b.sz.minPasses || time.Since(start) < b.cfg.budget(); n++ {
		speed := b.speed()
		if b.tr != nil && n%2 == 1 {
			traced.add(b.servePhase(in, env.traced.URL, b.tr, slice, mutateEvery, history), speed)
		} else {
			plain.add(b.servePhase(in, env.plain.URL, nil, slice, mutateEvery, history), speed)
		}
	}
	after := env.srv.Stats()

	b.add(plain.p50.timing("read_p50_ms", inMS), plain.p99.timing("read_p99_ms", inMS))
	if rw {
		b.add(plain.mutations.timing("mutate_p50_ms", inMS))
	}
	if b.tr == nil {
		b.add(
			plain.qps.timing("qps", 1).as("ops/s"),
			plain.p50.timing("p50_ms", inMS),
			plain.p99.timing("tail_ms", inMS),
			setup.timing("setup_s", inS),
		)
		return nil
	}
	b.add(firstQuery.timing("serve.entry_build_ms", inMS))
	return b.serveLayers(rw, in, env, plain, traced, [2]serve.Stats{before, after}, history)
}
