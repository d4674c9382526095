package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/ppm/graph"
)

// testConfig keeps graphs tiny so the suite stays fast on small machines.
func testConfig() Config {
	cfg := Default()
	cfg.Procs = 2
	cfg.MemWords = 1 << 21
	cfg.MaxBatch = 4
	cfg.PageRankIters = 3
	cfg.DefaultDeadline = 30 * time.Second
	return cfg
}

func smallGraph(seed uint64) GraphSpec {
	return GraphSpec{Kind: "rand", N: 200, M: 400, Seed: seed}
}

func TestServeBFSAndMemoizedKinds(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	g := smallGraph(1)

	r1, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0})
	if err != nil {
		t.Fatalf("bfs: %v", err)
	}
	if r1.N != 200 || r1.Reached < 1 || r1.Cached {
		t.Fatalf("bfs result = %+v", r1)
	}
	// Same source again: served from the level cache, no run.
	r2, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0})
	if err != nil {
		t.Fatalf("bfs repeat: %v", err)
	}
	if !r2.Cached || r2.Checksum != r1.Checksum {
		t.Fatalf("repeat not served from cache: %+v vs %+v", r2, r1)
	}

	// cc and pagerank memoize per graph residency.
	c1, err := s.Submit(Query{Graph: g, Kind: "cc"})
	if err != nil {
		t.Fatalf("cc: %v", err)
	}
	if c1.Extra == 0 {
		t.Fatalf("cc reported zero components: %+v", c1)
	}
	c2, err := s.Submit(Query{Graph: g, Kind: "cc"})
	if err != nil {
		t.Fatalf("cc repeat: %v", err)
	}
	if !c2.Cached || c2.Checksum != c1.Checksum || c2.Extra != c1.Extra {
		t.Fatalf("cc memo mismatch: %+v vs %+v", c2, c1)
	}
	p1, err := s.Submit(Query{Graph: g, Kind: "pagerank"})
	if err != nil {
		t.Fatalf("pagerank: %v", err)
	}
	p2, err := s.Submit(Query{Graph: g, Kind: "pagerank"})
	if err != nil {
		t.Fatalf("pagerank repeat: %v", err)
	}
	if !p2.Cached || p2.Checksum != p1.Checksum {
		t.Fatalf("pagerank memo mismatch: %+v vs %+v", p2, p1)
	}

	st := s.Stats()
	if st.CacheHits < 3 {
		t.Fatalf("expected >=3 cache hits, stats = %+v", st)
	}
	if st.Runs != 3 { // one bfs run, one cc run, one pagerank run
		t.Fatalf("expected exactly 3 runs, stats = %+v", st)
	}
}

func TestServeRejectsBadQueries(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	g := smallGraph(2)
	if _, err := s.Submit(Query{Graph: g, Kind: "sssp"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 10_000}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	bad := GraphSpec{Kind: "torus", N: 10, M: 10, Seed: 1}
	if _, err := s.Submit(Query{Graph: bad, Kind: "bfs"}); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
	// A batch naming a vertex past n reaches the runner, which refuses it
	// before any program starts: a 400, not a run and not a shed.
	_, err := s.Mutate(Mutation{Graph: g, Insert: [][2]int{{0, 10_000}}})
	if err == nil || statusFor(err) != http.StatusBadRequest {
		t.Fatalf("out-of-range mutation: err = %v (status %d), want 400", err, statusFor(err))
	}
	if st := s.Stats(); st.Runs != 0 || st.Shed503 != 0 || st.Shed429 != 0 || st.Mutations != 0 {
		t.Fatalf("refused queries and mutation were counted: %+v", st)
	}
}

// TestMemoizedSinceAdmissionRunsOnce: a query for key K admitted while K is
// already claimed by the runner is answered from the memo that K's run
// fills, not by a second run — for every kind.
func TestMemoizedSinceAdmissionRunsOnce(t *testing.T) {
	for _, tc := range []struct {
		kind   string
		source int
	}{{"bfs", 3}, {"cc", 0}, {"pagerank", 0}} {
		t.Run(tc.kind, func(t *testing.T) {
			s := New(testConfig())
			defer s.Close()
			g := smallGraph(41)
			e, err := s.entryFor(g)
			if err != nil {
				t.Fatal(err)
			}
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for end := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
					if time.Now().After(end) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}
			// Hold the run slot and queue K. The runner claims what it drained
			// only once its drain loop is over, so after the claim it holds K
			// and waits for the slot, and nothing queued later joins K's batch.
			q := Query{Graph: g, Kind: tc.kind, Source: tc.source}
			s.runSem <- struct{}{}
			first := &pending{q: q, epoch: e.res.Epoch(), done: make(chan struct{}),
				expiry: time.Now().Add(30 * time.Second)}
			if err := e.enqueue(first); err != nil {
				t.Fatal(err)
			}
			waitFor("the runner to claim K", func() bool { return first.state.Load() == 1 })
			// K again: nothing is memoized yet, so it queues behind K's run.
			second := make(chan *Result, 1)
			go func() {
				r, err := s.Submit(q)
				if err != nil {
					t.Errorf("second submit: %v", err)
				}
				second <- r
			}()
			waitFor("the second K to queue", func() bool { return len(e.queue) == 1 })
			<-s.runSem
			<-first.done
			r2 := <-second
			if first.err != nil || r2 == nil {
				t.Fatalf("first answer err = %v, second = %+v", first.err, r2)
			}
			if r2.Checksum != first.res.Checksum || r2.Epoch != first.res.Epoch {
				t.Fatalf("second answer %+v differs from first %+v", r2, first.res)
			}
			if st := s.Stats(); st.Runs != 1 {
				t.Fatalf("K ran %d times, want 1: %+v", st.Runs, st)
			}
		})
	}
}

func TestGraphCacheEviction(t *testing.T) {
	cfg := testConfig()
	cfg.MaxGraphs = 2
	s := New(cfg)
	defer s.Close()

	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := s.Submit(Query{Graph: smallGraph(seed), Kind: "bfs", Source: 0}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Graph 1 was least recently used when graph 3 arrived.
	got := s.Graphs()
	if len(got) != 2 || got[0] != smallGraph(3).Key() || got[1] != smallGraph(2).Key() {
		t.Fatalf("resident graphs = %v", got)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.GraphsBuilt != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 builds", st)
	}

	// The evicted graph re-admits cleanly: a fresh entry, not stale state.
	r, err := s.Submit(Query{Graph: smallGraph(1), Kind: "bfs", Source: 0})
	if err != nil {
		t.Fatalf("re-admit: %v", err)
	}
	if r.Cached {
		t.Fatal("evicted graph served from a cache that should be gone")
	}
	if st := s.Stats(); st.Evictions != 2 || st.GraphsBuilt != 4 {
		t.Fatalf("stats after re-admit = %+v", st)
	}
}

func TestDeadlineExpiredQuery(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	g := smallGraph(4)
	// Warm the entry so the deadline race is against the queue, not the build.
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Hold the run slot so a non-memoized query cannot execute, then submit
	// one with a deadline far shorter than the hold.
	s.runSem <- struct{}{}
	release := time.AfterFunc(300*time.Millisecond, func() { <-s.runSem })
	defer release.Stop()
	_, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 1, DeadlineMS: 30})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("blocked query error = %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.Shed503 == 0 {
		t.Fatalf("deadline shed not counted: %+v", st)
	}
}

func TestOverloadSheds429(t *testing.T) {
	cfg := testConfig()
	cfg.MaxQueue = 4
	s := New(cfg)
	defer s.Close()
	g := smallGraph(5)
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Plug the run slot so submissions pile up against MaxQueue.
	s.runSem <- struct{}{}
	defer func() { <-s.runSem }()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 1 + i, DeadlineMS: 200})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	shed := 0
	for err := range errs {
		if errors.Is(err, ErrOverloaded) {
			shed++
		} else if !errors.Is(err, ErrDeadline) {
			t.Fatalf("unexpected error under overload: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no 429s: admission control did not engage")
	}
	if st := s.Stats(); st.Shed429 != int64(shed) {
		t.Fatalf("Shed429 = %d, want %d", st.Shed429, shed)
	}
}

func TestBFSBatchingCoalesces(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 8
	s := New(cfg)
	defer s.Close()
	g := smallGraph(6)
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Hold the run slot while distinct-source queries queue up, so releasing
	// it lets the runner drain them as batches.
	s.runSem <- struct{}{}
	var wg sync.WaitGroup
	results := make(chan *Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 1 + i})
			if err != nil {
				t.Errorf("source %d: %v", 1+i, err)
				return
			}
			results <- r
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let them all reach the queue
	<-s.runSem
	wg.Wait()
	close(results)
	maxBatched := 0
	for r := range results {
		if r.Batched > maxBatched {
			maxBatched = r.Batched
		}
	}
	if maxBatched < 2 {
		t.Fatalf("no coalescing observed: max batched = %d", maxBatched)
	}
	st := s.Stats()
	if st.CoalesceRatio < 1.5 {
		t.Fatalf("coalesce ratio %.2f too low: %+v", st.CoalesceRatio, st)
	}
}

func TestConcurrentFirstQueriesShareOneBuild(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	g := smallGraph(10)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: i}); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.GraphsBuilt != 1 {
		t.Fatalf("burst of first queries built %d runtimes, want 1", st.GraphsBuilt)
	}
}

// TestGraphOverMemWordsIsRefused: a query naming a graph whose build runs
// out of MemWords gets an error, not a panic, and the build slot is
// released, so every later query for that graph is refused as well, each
// well inside its deadline. Over HTTP the refusal is a 400. The server stays
// live, no entry stays resident, and the half-built durable region is
// removed.
func TestGraphOverMemWordsIsRefused(t *testing.T) {
	cfg := testConfig()
	cfg.MemWords = 1 << 16
	cfg.DurableDir = t.TempDir()
	s := New(cfg)
	defer s.Close()
	big := GraphSpec{Kind: "rand", N: 20000, M: 40000, Seed: 1}
	const deadlineMS = 200
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := s.Submit(Query{Graph: big, Kind: "bfs", Source: 0, DeadlineMS: deadlineMS})
		if err == nil || !strings.Contains(err.Error(), "MemWords") {
			t.Fatalf("Submit %d: err = %v, want a MemWords error", i, err)
		}
		if d := time.Since(start); d > deadlineMS*time.Millisecond/2 {
			t.Fatalf("Submit %d took %v, deadline %d ms", i, d, deadlineMS)
		}
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	body, _ := json.Marshal(Query{Graph: big, Kind: "cc", DeadlineMS: deadlineMS})
	for i := 0; i < 2; i++ {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /query %d: status %d, want 400", i, resp.StatusCode)
		}
		if d := time.Since(start); d > deadlineMS*time.Millisecond/2 {
			t.Fatalf("POST /query %d took %v, deadline %d ms", i, d, deadlineMS)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
	if gs := s.Graphs(); len(gs) != 0 {
		t.Fatalf("resident graphs %v, want none", gs)
	}
	if files, _ := os.ReadDir(cfg.DurableDir); len(files) != 0 {
		t.Fatalf("durable dir holds %d files, want none", len(files))
	}
	// A graph that fits is still served.
	if _, err := s.Submit(Query{Graph: smallGraph(1), Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("small graph: %v", err)
	}
}

// TestGridSpecArcsRefused: a grid spec's arc count is known from n, so its
// refusal counts the version ring's arcs: a grid that the vertex-only floor
// admits but whose arcs push it over MemWords is refused from the spec,
// with the bound's message and no region file, before it is generated. The
// count matches the generator's for square, oblong, prime and 1-vertex n.
func TestGridSpecArcsRefused(t *testing.T) {
	for _, n := range []int{1, 2, 7, 3000, 2999, 16384} {
		g, err := graph.Generate("grid", n, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := (GraphSpec{Kind: "grid", N: n}).arcs(); got != len(g.Adj) {
			t.Errorf("grid n=%d: spec counts %d arcs, the generator makes %d", n, got, len(g.Adj))
		}
	}
	cfg := testConfig()
	cfg.DurableDir = t.TempDir()
	spec := GraphSpec{Kind: "grid", N: 40000, Seed: 1}
	floor := graph.MinBuildWords(spec.N, 0, cfg.EpochSlots, cfg.MutBatchCap, cfg.MaxBatch)
	need := graph.MinBuildWords(spec.N, spec.arcs(), cfg.EpochSlots, cfg.MutBatchCap, cfg.MaxBatch)
	cfg.MemWords = (floor + need) / 2
	if floor > cfg.MemWords || need <= cfg.MemWords {
		t.Fatalf("floor %d, need %d: no MemWords between them", floor, need)
	}
	s := New(cfg)
	defer s.Close()
	_, err := s.Submit(Query{Graph: spec, Kind: "bfs", Source: 0})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("needs at least %d words", need)) {
		t.Fatalf("err = %v, want a refusal of %d words from the spec", err, need)
	}
	if files, _ := os.ReadDir(cfg.DurableDir); len(files) != 0 {
		t.Fatalf("durable dir holds %d files, want none", len(files))
	}
}

func TestServerCloseRefusesQueries(t *testing.T) {
	s := New(testConfig())
	g := smallGraph(7)
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if len(s.Graphs()) != 0 {
		t.Fatal("graphs survived Close")
	}
}

// TestHTTPMixedBurst fires 100 mixed queries at a live server through the
// HTTP layer; run under -race it doubles as the concurrency check for the
// whole submit/batch/memoize path.
func TestHTTPMixedBurst(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 8
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	g := smallGraph(8)
	kinds := []string{"bfs", "bfs", "bfs", "cc", "pagerank"}
	var wg sync.WaitGroup
	codes := make(chan int, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := Query{Graph: g, Kind: kinds[i%len(kinds)], Source: i % 16}
			body, _ := json.Marshal(q)
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var r Result
				if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
					t.Errorf("query %d: bad result body: %v", i, err)
				}
			}
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	ok := 0
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// legitimate sheds under burst
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Fatal("no query succeeded")
	}

	// The other endpoints answer over the same burst-warmed server.
	for _, path := range []string{"/graphs", "/statsz", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	var st Stats
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	resp.Body.Close()
	if st.Answered == 0 || st.Runs == 0 {
		t.Fatalf("burst left no trace in stats: %+v", st)
	}
	t.Logf("burst stats: %+v", st)
}

// TestHTTPBodyBounds: /query and /mutate read a bounded body. One longer
// than any MutBatchCap-edge batch needs is refused with 413 before it is
// parsed to the end, a truncated one or one with data after its JSON value
// with 400, all as the structured error; trailing whitespace is fine, and a
// full batch of the widest ids, indented, still fits.
func TestHTTPBodyBounds(t *testing.T) {
	cfg := testConfig()
	cfg.MutBatchCap = 8
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	limit := 4096 + 64*cfg.MutBatchCap

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: status %d, body is not JSON: %v", path, resp.StatusCode, err)
		}
		return resp.StatusCode, e.Error
	}

	spec, _ := json.Marshal(smallGraph(31))
	query := `{"kind":"cc","graph":` + string(spec) + `}`
	edges := strings.Repeat("[0,1],", limit/6+1)
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"query/oversized", "/query", `{"kind":"cc",` + strings.Repeat(" ", limit) + `"graph":` + string(spec) + `}`, http.StatusRequestEntityTooLarge},
		{"mutate/oversized", "/mutate", `{"graph":` + string(spec) + `,"insert":[` + edges + `[0,1]]}`, http.StatusRequestEntityTooLarge},
		{"query/truncated", "/query", `{"kind":"cc","graph":{"kind":"rand"`, http.StatusBadRequest},
		{"mutate/truncated", "/mutate", `{"graph":` + string(spec) + `,"insert":[[0,1],[2`, http.StatusBadRequest},
		{"query/trailing", "/query", query + query, http.StatusBadRequest},
		{"mutate/trailing", "/mutate", `{"graph":` + string(spec) + `,"insert":[[0,1]]} junk`, http.StatusBadRequest},
	} {
		code, msg := post(tc.path, tc.body)
		if code != tc.want || msg == "" {
			t.Errorf("%s: status %d, error %q; want %d and a message", tc.name, code, msg, tc.want)
		}
	}
	if st := s.Stats(); st.Runs != 0 || st.Mutations != 0 {
		t.Errorf("a refused body reached a runner: %+v", st)
	}
	if code, msg := post("/query", query+" \n\t "); code != http.StatusOK {
		t.Errorf("query with trailing whitespace: status %d, error %q; want 200", code, msg)
	}

	// The widest legal batch is refused for its vertex ids, not its length.
	wide := make([][2]int, cfg.MutBatchCap)
	for i := range wide {
		wide[i] = [2]int{1<<63 - 1, 1<<63 - 1 - i}
	}
	body, _ := json.MarshalIndent(Mutation{Graph: smallGraph(31), Insert: wide, DeadlineMS: 1 << 40}, "", "    ")
	if code, msg := post("/mutate", string(body)); code != http.StatusBadRequest || strings.HasPrefix(msg, "bad mutation") {
		t.Errorf("widest legal batch (%d bytes of %d): status %d, error %q; want 400 from validation",
			len(body), limit, code, msg)
	}
}

// TestResultsMatchAcrossBatches checks that a source answered inside a batch
// equals the same source answered alone — the coalesced program computes the
// same BFS the solo one does.
func TestResultsMatchAcrossBatches(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 4
	cfg.LevelCacheEntries = 1 // force re-runs so the comparison crosses runs
	s := New(cfg)
	defer s.Close()
	g := smallGraph(9)

	solo := map[int]uint64{}
	for src := 0; src < 4; src++ {
		r, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: src})
		if err != nil {
			t.Fatalf("solo %d: %v", src, err)
		}
		solo[src] = r.Checksum
	}
	// Now batched: hold the slot, queue all four, release.
	s.runSem <- struct{}{}
	var wg sync.WaitGroup
	for src := 0; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			r, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: src})
			if err != nil {
				t.Errorf("batched %d: %v", src, err)
				return
			}
			if r.Checksum != solo[src] {
				t.Errorf("source %d: batched checksum %d != solo %d", src, r.Checksum, solo[src])
			}
		}(src)
	}
	time.Sleep(100 * time.Millisecond)
	<-s.runSem
	wg.Wait()
}

// TestDurableServing runs the server with DurableDir: every resident graph
// gets an mmap'd region file, /statsz-visible persist points accumulate as
// queries run, and eviction (LRU or Close) removes the file only after the
// runtime's final sync.
func TestDurableServing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "regions")
	cfg := testConfig()
	cfg.MaxGraphs = 1
	cfg.DurableDir = dir
	s := New(cfg)
	defer s.Close()

	regionFile := func(g GraphSpec) string {
		return filepath.Join(dir, strings.ReplaceAll(g.Key(), ":", "_")+".region")
	}

	g1 := smallGraph(11)
	if _, err := s.Submit(Query{Graph: g1, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("bfs on durable graph: %v", err)
	}
	if _, err := os.Stat(regionFile(g1)); err != nil {
		t.Fatalf("resident graph has no region file: %v", err)
	}
	st := s.Stats()
	if st.PersistPoints[g1.Key()] == 0 {
		t.Fatalf("no persist points reported for resident durable graph: %+v", st)
	}

	// A second graph evicts the first (MaxGraphs=1); its region file must be
	// gone, and the stats map must track the new resident set.
	g2 := smallGraph(12)
	if _, err := s.Submit(Query{Graph: g2, Kind: "cc"}); err != nil {
		t.Fatalf("cc on second durable graph: %v", err)
	}
	if _, err := os.Stat(regionFile(g1)); !os.IsNotExist(err) {
		t.Fatalf("evicted graph's region file survived (stat err = %v)", err)
	}
	st = s.Stats()
	if _, ok := st.PersistPoints[g1.Key()]; ok {
		t.Fatalf("evicted graph still reported in persist points: %+v", st)
	}
	if st.PersistPoints[g2.Key()] == 0 {
		t.Fatalf("no persist points reported for second graph: %+v", st)
	}

	s.Close()
	if _, err := os.Stat(regionFile(g2)); !os.IsNotExist(err) {
		t.Fatalf("Close left a region file behind (stat err = %v)", err)
	}
}

// TestRecoveredRegionOfOtherProgramsRebuilds: a region file whose setup
// other programs recorded — here a server with a narrower MaxBatch, whose
// MultiBFS allocates less — cannot be rebuilt by these programs. Recovery
// discards it and builds the graph fresh, at epoch 0, instead of panicking
// out of RecoverResident, which does not count it as recovered.
func TestRecoveredRegionOfOtherProgramsRebuilds(t *testing.T) {
	cfg := testConfig()
	cfg.DurableDir = t.TempDir()
	cfg.MaxBatch = 2
	g := smallGraph(13)
	s := New(cfg)
	if _, err := s.Mutate(Mutation{Graph: g, Insert: [][2]int{{1, 2}}}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	s.Drain(5 * time.Second) // keeps the region file
	s.Close()

	cfg.MaxBatch = 8
	s2 := New(cfg)
	defer s2.Close()
	if n := s2.RecoverResident(); n != 0 {
		t.Fatalf("RecoverResident = %d, want 0: the graph was built fresh, not recovered", n)
	}
	r, err := s2.Submit(Query{Graph: g, Kind: "bfs", Source: 0})
	if err != nil {
		t.Fatalf("bfs after recovery: %v", err)
	}
	if r.Epoch != 0 {
		t.Fatalf("epoch %d, want 0: the region of other programs was not rebuilt fresh", r.Epoch)
	}
}

// TestDurableBarrierFailureIs500: a run whose MS_SYNC barrier fails committed
// nothing, so its query must fail as a server error — here the cold cc run's
// opening barrier — and the latched runtime keeps refusing cold runs, while
// answers memoised before the failure stay servable.
func TestDurableBarrierFailureIs500(t *testing.T) {
	cfg := testConfig()
	cfg.DurableDir = filepath.Join(t.TempDir(), "regions")
	s := New(cfg)
	defer s.Close()
	g := smallGraph(13)
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("bfs before the failure: %v", err)
	}
	failed := false // fail the next msync: the cold run's opening barrier
	real := durable.Msync
	durable.Msync = func(addr, length, flags uintptr) syscall.Errno {
		if !failed {
			failed = true
			return syscall.EIO
		}
		return real(addr, length, flags)
	}
	defer func() { durable.Msync = real }()
	for _, kind := range []string{"cc", "pagerank"} {
		_, err := s.Submit(Query{Graph: g, Kind: kind})
		if !errors.Is(err, ErrRunFailed) || statusFor(err) != http.StatusInternalServerError {
			t.Fatalf("%s after a failed barrier: err = %v (status %d), want ErrRunFailed / 500",
				kind, err, statusFor(err))
		}
	}
	if _, err := s.Submit(Query{Graph: g, Kind: "bfs", Source: 0}); err != nil {
		t.Fatalf("memoised bfs after the failure: %v", err)
	}
}

func ExampleGraphSpec_Key() {
	fmt.Println(GraphSpec{Kind: "rand", N: 100000, M: 200000, Seed: 42}.Key())
	// Output: rand:n100000:m200000:s42
}
