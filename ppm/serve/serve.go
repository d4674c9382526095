// Package serve is the resident query service over the Parallel-PM native
// runtime: it keeps loaded graphs and their built programs alive across
// queries and turns the one-shot benchmark shape (build runtime, run, throw
// both away) into a long-lived server.
//
// Four mechanisms make a single-run-at-a-time runtime serve concurrent
// traffic:
//
//   - Admission control. A global bound caps the queries in flight; past it,
//     Submit refuses immediately (ErrOverloaded → HTTP 429). Mutations have
//     their own bound (MaxMutQueue), so a write burst cannot starve reads of
//     admission slots or vice versa. Every admitted request carries a
//     deadline; one whose deadline passes while it waits is answered
//     ErrDeadline (HTTP 503) — the runner never spends a run on a waiter
//     that has already given up.
//
//   - Batching. Each resident graph has one runner goroutine that drains its
//     queue and coalesces compatible work. A query kind is one row of the
//     kinds table: its width is how many distinct keys one run answers, so
//     concurrent BFS queries execute as one multi-source frontier program
//     (graph.MultiBFS, up to MaxBatch sources per run) while connectivity
//     and PageRank — whose results depend only on the graph version — run
//     once per epoch. Every answer is memoized per (kind, source, epoch) in
//     one bounded LRU (LevelCacheEntries), so a repeated key, or one that a
//     run answered while the query waited, is served without a run.
//
//   - Mutation and snapshot isolation. Graphs are resident as epoch-versioned
//     CSR rings (graph.Resident): POST /mutate joins the query path, and the
//     runner applies each batch as a root-chain program whose commit bumps a
//     durable epoch word. Every read pins the committed epoch at admission
//     and executes against that epoch's version slot, so in-flight readers
//     never observe a half-applied batch — they read the pre-batch arrays
//     until the epoch falls out of the ring (ErrSnapshotGone → 503). The
//     runner serves the drained reads first and only then applies drained
//     mutations, keeping the isolation window short.
//
//   - Lifecycle. Graphs live in a bounded LRU cache; each entry owns its own
//     native runtime, so evicting an entry releases its whole memory region
//     through Runtime.Close (the pmem allocator is a bump allocator with no
//     free list — per-entry runtimes are what make eviction reclaim memory).
//     With DurableDir set, a restarted server recovers surviving region
//     files: ppm.Recover + program rebuild + Resume replays the un-committed
//     tail of any interrupted mutation batch, and the graph comes back at
//     exactly the last committed epoch. Ready (GET /readyz) reports false
//     while that replay is in progress; Drain is the graceful-shutdown
//     counterpart to Close, finishing in-flight work and syncing every
//     region without removing it.
//
// The package is HTTP-free at its core: Server.Submit and Server.Mutate are
// the programmatic interface, and http.go wraps them in handlers (POST
// /query, POST /mutate, GET /graphs, GET /statsz, GET /healthz, GET
// /readyz) for cmd/ppmserve.
package serve

import (
	"container/list"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/ppm"
	"repro/ppm/graph"
)

// Service errors, mapped onto HTTP statuses by http.go.
var (
	// ErrOverloaded refuses admission when the global queue is full (429).
	ErrOverloaded = errors.New("serve: query queue full")
	// ErrDeadline answers a query whose deadline passed in the queue (503).
	ErrDeadline = errors.New("serve: deadline exceeded before execution")
	// ErrEvicted answers waiters of a graph evicted mid-flight (503).
	ErrEvicted = errors.New("serve: graph evicted while query was queued")
	// ErrClosed refuses queries after Server.Close (503).
	ErrClosed = errors.New("serve: server is closed")
	// ErrRunFailed reports a program run that did not complete (500).
	ErrRunFailed = errors.New("serve: program run did not complete")
	// ErrSnapshotGone answers a reader whose pinned epoch fell out of the
	// version ring before its run was scheduled (503; retry reads current).
	ErrSnapshotGone = errors.New("serve: pinned epoch fell out of the version ring")
)

// Config sizes the server. The zero value is unusable; call Default() and
// override, or fill every field.
type Config struct {
	// Procs is P for each graph's native runtime.
	Procs int
	// MaxGraphs bounds the resident-graph LRU; admission of a new graph
	// evicts the least-recently-used entry (closing its runtime).
	MaxGraphs int
	// MaxBatch is the multi-source BFS batch capacity per graph (graph.
	// MultiBFS caps it at 15: a batch's sources ride its root capsule's
	// arguments). Larger batches coalesce more concurrent BFS queries per
	// run at kMax*n words of memory per graph.
	MaxBatch int
	// MaxQueue bounds queries admitted and not yet answered, across all
	// graphs. Beyond it Submit returns ErrOverloaded.
	MaxQueue int
	// MaxMutQueue bounds mutation batches admitted and not yet applied,
	// across all graphs — the write path's own admission bound. Beyond it
	// Mutate returns ErrOverloaded.
	MaxMutQueue int
	// MaxConcurrentRuns bounds program runs executing simultaneously across
	// graph entries (each entry is internally serialized; this caps
	// cross-entry parallelism so co-resident graphs do not oversubscribe
	// the machine).
	MaxConcurrentRuns int
	// DefaultDeadline applies to queries that do not set one.
	DefaultDeadline time.Duration
	// MemWords sizes each graph runtime's memory region.
	MemWords int
	// LevelCacheEntries bounds the per-graph LRU of memoized answers, of
	// every kind: one entry per (kind, source, epoch), holding only the
	// answer's summary.
	LevelCacheEntries int
	// PageRankIters is the fixed iteration count for pagerank queries.
	PageRankIters int
	// EpochSlots is the CSR version-ring size per resident graph (minimum
	// 2). Readers keep snapshot isolation for EpochSlots-1 committed batches
	// past their pin before ErrSnapshotGone.
	EpochSlots int
	// MutBatchCap caps the edges in one mutation batch.
	MutBatchCap int
	// Seed drives graph generation determinism.
	Seed uint64
	// DurableDir, when non-empty, backs each resident graph's runtime with
	// an mmap'd region file under this directory (created on first use):
	// query and mutation effects persist at capsule boundaries, so a crashed
	// server restarted against surviving region files recovers every graph
	// at its last committed epoch (RecoverResident). Eviction and Close
	// remove the backing file after the runtime's final msync — an evicted
	// graph's durable history is over; Drain keeps the files for restart.
	DurableDir string
	// FaultRate injects soft faults into every entry runtime (capsule
	// abort-and-replay; see ppm.WithFaultRate). Chaos testing only.
	FaultRate float64
}

// Default returns the configuration cmd/ppmserve starts from.
func Default() Config {
	return Config{
		Procs:             4,
		MaxGraphs:         2,
		MaxBatch:          8,
		MaxQueue:          256,
		MaxMutQueue:       32,
		MaxConcurrentRuns: 1,
		DefaultDeadline:   2 * time.Second,
		MemWords:          1 << 24,
		LevelCacheEntries: 64,
		PageRankIters:     10,
		EpochSlots:        2,
		MutBatchCap:       1024,
		Seed:              42,
	}
}

// GraphSpec names a generated graph; it is the cache key. Kind is one of the
// graph package's generators ("rand", "grid", "rmat").
type GraphSpec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	Seed uint64 `json:"seed"`
}

// Key is the canonical cache key of the spec.
func (s GraphSpec) Key() string {
	return fmt.Sprintf("%s:n%d:m%d:s%d", s.Kind, s.N, s.M, s.Seed)
}

// arcs is the spec's arc count where its generator fixes it from n alone:
// the grid's, whose dimensions graph.Generate picks as rows the largest
// divisor of n up to √n. rand and rmat drop self-loops (and rmat out-of-range
// draws), so their count is only known once generated: 0.
func (s GraphSpec) arcs() int {
	if s.Kind != "grid" || s.N <= 0 {
		return 0
	}
	rows := 1
	for r := 2; r*r <= s.N; r++ {
		if s.N%r == 0 {
			rows = r
		}
	}
	cols := s.N / rows
	return 2 * (rows*(cols-1) + (rows-1)*cols)
}

// regionName flattens the key into a POSIX-friendly region file name; the
// mapping is reversible (specFromRegion) so a restarted server can re-admit
// surviving regions without being told what was resident.
func (s GraphSpec) regionName() string {
	return strings.ReplaceAll(s.Key(), ":", "_") + ".region"
}

// specFromRegion inverts regionName.
func specFromRegion(name string) (GraphSpec, bool) {
	name = strings.TrimSuffix(name, ".region")
	parts := strings.Split(name, "_")
	if len(parts) != 4 {
		return GraphSpec{}, false
	}
	var sp GraphSpec
	if _, err := fmt.Sscanf(parts[1], "n%d", &sp.N); err != nil {
		return GraphSpec{}, false
	}
	if _, err := fmt.Sscanf(parts[2], "m%d", &sp.M); err != nil {
		return GraphSpec{}, false
	}
	if _, err := fmt.Sscanf(parts[3], "s%d", &sp.Seed); err != nil {
		return GraphSpec{}, false
	}
	sp.Kind = parts[0]
	return sp, true
}

// Query is one read request against a resident graph.
type Query struct {
	Graph  GraphSpec `json:"graph"`
	Kind   string    `json:"kind"`   // "bfs", "cc", "pagerank"
	Source int       `json:"source"` // bfs only
	// DeadlineMS bounds queue wait + execution; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms"`
}

// Mutation is one atomic batch of undirected edge changes against a resident
// graph (see graph.MutationBatch for the exact semantics). Its commit bumps
// the graph's epoch; concurrent readers admitted before the commit keep
// reading the pre-batch arrays.
type Mutation struct {
	Graph  GraphSpec `json:"graph"`
	Insert [][2]int  `json:"insert,omitempty"`
	Delete [][2]int  `json:"delete,omitempty"`
	// DeadlineMS bounds queue wait + execution; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms"`
}

// Result is the answer to a query or mutation. Large outputs are summarized:
// a BFS answer carries the reached-vertex count, the maximum finite level,
// and a checksum of the level array; cc the component count; pagerank the
// rank checksum; a mutation the applied edge count (Extra) and the graph's
// total arcs (Checksum). Epoch is the graph version the answer was computed
// at (for a mutation, the version it committed). Batched reports how many
// queries the run that produced this answer served (1 = unshared); Cached is
// true when no run was needed.
type Result struct {
	Kind     string `json:"kind"`
	Source   int    `json:"source,omitempty"`
	N        int    `json:"n"`
	Reached  int    `json:"reached,omitempty"`
	MaxLevel uint64 `json:"max_level,omitempty"`
	Checksum uint64 `json:"checksum"`
	Extra    uint64 `json:"extra,omitempty"` // cc: components; pagerank: iters; mutate: edges
	Epoch    uint64 `json:"epoch"`
	Batched  int    `json:"batched"`
	Cached   bool   `json:"cached"`
	WaitMS   int64  `json:"wait_ms"`
}

// Stats is the counter snapshot served at /statsz.
type Stats struct {
	Queries       int64   `json:"queries"`        // admitted reads
	Answered      int64   `json:"answered"`       // answered successfully
	Shed429       int64   `json:"shed_429"`       // refused at admission
	Shed503       int64   `json:"shed_503"`       // deadline/eviction/closed/snapshot-gone
	Runs          int64   `json:"runs"`           // program runs executed
	RunQueries    int64   `json:"run_queries"`    // queries answered by runs
	CacheHits     int64   `json:"cache_hits"`     // answered with no run
	Evictions     int64   `json:"evictions"`      // graph entries closed
	GraphsBuilt   int64   `json:"graphs_built"`   // entries constructed
	Mutations     int64   `json:"mutations"`      // mutation batches committed
	MutQueued     int64   `json:"mut_queued"`     // mutation batches admitted, not yet applied
	CoalesceRatio float64 `json:"coalesce_ratio"` // RunQueries per successful read run; Runs also counts commits
	// Epochs maps each resident graph key to its last committed epoch.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	// PersistPoints maps each resident graph key to the capsule-boundary
	// persistence points its runtime has committed so far. Zero on every
	// entry unless the server runs with DurableDir; nil when no graphs are
	// resident.
	PersistPoints map[string]int64 `json:"persist_points,omitempty"`
}

type counters struct {
	queries, answered, shed429, shed503 atomic.Int64
	runs, readRuns, runQueries          atomic.Int64
	cacheHits                           atomic.Int64
	evictions, graphsBuilt              atomic.Int64
	mutations, mutQueued                atomic.Int64
	inFlight                            atomic.Int64
}

// Server is the resident query service.
type Server struct {
	cfg       Config
	ctr       counters
	runSem    chan struct{} // bounds cross-entry concurrent runs
	replaying atomic.Int64  // recoveries in progress; Ready() gates on 0

	mu      sync.Mutex
	closed  bool
	entries map[string]*entry
	builds  map[string]*buildState // in-flight graph builds, deduplicated
	lru     *list.List             // front = most recent; values are *entry
}

// buildState coalesces concurrent first queries for the same graph onto one
// build: building a graph means generating it, constructing a runtime, and
// compiling four programs — work (and a memory region) that must not be
// multiplied by the very burst the batcher is there to absorb.
type buildState struct {
	ready chan struct{} // closed when the build finishes
	e     *entry
	err   error
}

// New builds a server from cfg (zero fields fall back to Default values).
func New(cfg Config) *Server {
	d := Default()
	if cfg.Procs <= 0 {
		cfg.Procs = d.Procs
	}
	if cfg.MaxGraphs <= 0 {
		cfg.MaxGraphs = d.MaxGraphs
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = d.MaxBatch
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = d.MaxQueue
	}
	if cfg.MaxMutQueue <= 0 {
		cfg.MaxMutQueue = d.MaxMutQueue
	}
	if cfg.MaxConcurrentRuns <= 0 {
		cfg.MaxConcurrentRuns = d.MaxConcurrentRuns
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = d.DefaultDeadline
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = d.MemWords
	}
	if cfg.LevelCacheEntries <= 0 {
		cfg.LevelCacheEntries = d.LevelCacheEntries
	}
	if cfg.PageRankIters <= 0 {
		cfg.PageRankIters = d.PageRankIters
	}
	if cfg.EpochSlots < 2 {
		cfg.EpochSlots = d.EpochSlots
	}
	if cfg.MutBatchCap <= 0 {
		cfg.MutBatchCap = d.MutBatchCap
	}
	return &Server{
		cfg:     cfg,
		runSem:  make(chan struct{}, cfg.MaxConcurrentRuns),
		entries: make(map[string]*entry),
		builds:  make(map[string]*buildState),
		lru:     list.New(),
	}
}

// Submit runs one query to completion: admission, graph residency, epoch
// pinning, batching or memoized answer, deadline. It blocks until the answer
// (or refusal) and is safe for arbitrary concurrency.
func (s *Server) Submit(q Query) (*Result, error) {
	start := time.Now()
	ki := kindIndex(q.Kind)
	if ki < 0 {
		return nil, fmt.Errorf("serve: unknown query kind %q", q.Kind)
	}
	sourced := kinds[ki].sourced
	if !sourced {
		q.Source = 0 // one answer per epoch: every query shares its key
	}
	// Admission: a full queue refuses immediately rather than building
	// backlog the deadlines would shed anyway.
	if n := s.ctr.inFlight.Add(1); n > int64(s.cfg.MaxQueue) {
		s.ctr.inFlight.Add(-1)
		return s.refuse(ErrOverloaded)
	}
	defer s.ctr.inFlight.Add(-1)
	s.ctr.queries.Add(1)

	e, err := s.entryFor(q.Graph)
	if err != nil {
		return s.refuse(err)
	}
	if sourced && (q.Source < 0 || q.Source >= e.n) {
		return nil, fmt.Errorf("serve: %s source %d out of range for n=%d", q.Kind, q.Source, e.n)
	}

	// Pin the graph version: the answer is computed against the epoch
	// committed as of admission, even if mutation batches commit while this
	// query waits (snapshot isolation for EpochSlots-1 batches).
	epoch := e.res.Epoch()

	// Memoized fast path: no run, no queue.
	if r := e.cachedResult(q, epoch); r != nil {
		s.ctr.cacheHits.Add(1)
		s.ctr.answered.Add(1)
		r.WaitMS = time.Since(start).Milliseconds()
		return r, nil
	}

	return s.wait(e, &pending{q: q, epoch: epoch}, start, q.DeadlineMS)
}

// Mutate applies one edge batch to a resident graph: admission against the
// mutation bound, then the entry runner executes the batch-apply program
// after the reads drained alongside it. On success the Result carries the
// new committed epoch; on a durable server the commit has already persisted
// when Mutate returns.
func (s *Server) Mutate(m Mutation) (*Result, error) {
	start := time.Now()
	b := graph.MutationBatch{Insert: m.Insert, Delete: m.Delete}
	if b.Edges() == 0 {
		return nil, fmt.Errorf("serve: empty mutation batch")
	}
	if b.Edges() > s.cfg.MutBatchCap {
		return nil, fmt.Errorf("serve: mutation batch of %d edges exceeds cap %d",
			b.Edges(), s.cfg.MutBatchCap)
	}
	// The write path has its own admission bound: a mutation burst sheds
	// 429s without consuming read slots.
	if n := s.ctr.mutQueued.Add(1); n > int64(s.cfg.MaxMutQueue) {
		s.ctr.mutQueued.Add(-1)
		return s.refuse(ErrOverloaded)
	}
	defer s.ctr.mutQueued.Add(-1)

	e, err := s.entryFor(m.Graph)
	if err != nil {
		return s.refuse(err)
	}
	return s.wait(e, &pending{mut: &b}, start, m.DeadlineMS)
}

// wait queues pq for e's runner and blocks until its answer or its deadline:
// deadlineMS after start, or the server default when that is 0.
func (s *Server) wait(e *entry, pq *pending, start time.Time, deadlineMS int64) (*Result, error) {
	deadline := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		deadline = time.Duration(deadlineMS) * time.Millisecond
	}
	pq.done, pq.expiry = make(chan struct{}), start.Add(deadline)
	if err := e.enqueue(pq); err != nil {
		return s.refuse(err)
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-pq.done:
	case <-timer.C:
		// The runner skips expired waiters; mark ours so a racing runner
		// that already picked it up still completes it (we then prefer its
		// answer if it arrived before we observed the timeout).
		if pq.expire() {
			return s.refuse(ErrDeadline)
		}
		<-pq.done
	}
	if pq.err != nil {
		return s.refuse(pq.err)
	}
	s.ctr.answered.Add(1)
	pq.res.WaitMS = time.Since(start).Milliseconds()
	return pq.res, nil
}

// refuse returns err as the request's answer, counting it as a shed when
// its HTTP status is one (429 or 503); a malformed request (400) or a failed
// run (500) is not a shed.
func (s *Server) refuse(err error) (*Result, error) {
	switch statusFor(err) {
	case http.StatusTooManyRequests:
		s.ctr.shed429.Add(1)
	case http.StatusServiceUnavailable:
		s.ctr.shed503.Add(1)
	}
	return nil, err
}

// Ready reports whether the server is accepting work and no crash-recovery
// replay is in progress — the readiness half of the health split (liveness
// stays /healthz). A recovered graph replaying its un-committed mutation
// tail answers 503 on /readyz until the replay lands on the committed epoch.
func (s *Server) Ready() bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	return !closed && s.replaying.Load() == 0
}

// RecoverResident scans DurableDir for region files left by a previous
// process (a crash, or a Drain shutdown) and re-admits each one through the
// recovery path: ppm.Recover, identical program rebuild, Resume of any
// un-committed mutation tail, and a re-read of the committed epoch.
// Ready() is false for the duration. Returns the number of graphs recovered;
// a region that fails to recover is removed and its graph built fresh at
// epoch 0, which does not count, rather than wedging startup.
func (s *Server) RecoverResident() int {
	if s.cfg.DurableDir == "" {
		return 0
	}
	s.replaying.Add(1)
	defer s.replaying.Add(-1)
	matches, err := filepath.Glob(filepath.Join(s.cfg.DurableDir, "*.region"))
	if err != nil {
		return 0
	}
	n := 0
	for _, f := range matches {
		if spec, ok := specFromRegion(filepath.Base(f)); ok {
			if e, err := s.entryFor(spec); err == nil && e.recovered {
				n++
			}
		}
	}
	return n
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	rq := s.ctr.runQueries.Load()
	ratio := 0.0
	if reads := s.ctr.readRuns.Load(); reads > 0 {
		ratio = float64(rq) / float64(reads)
	}
	st := Stats{
		Queries:       s.ctr.queries.Load(),
		Answered:      s.ctr.answered.Load(),
		Shed429:       s.ctr.shed429.Load(),
		Shed503:       s.ctr.shed503.Load(),
		Runs:          s.ctr.runs.Load(),
		RunQueries:    rq,
		CacheHits:     s.ctr.cacheHits.Load(),
		Evictions:     s.ctr.evictions.Load(),
		GraphsBuilt:   s.ctr.graphsBuilt.Load(),
		Mutations:     s.ctr.mutations.Load(),
		MutQueued:     s.ctr.mutQueued.Load(),
		CoalesceRatio: ratio,
	}
	// Per-graph epoch and persist-point counts: reading a resident runtime's
	// counter mid-run is safe (it is an atomic the workers bump), so holding
	// s.mu only pins the entry set, not the runners.
	s.mu.Lock()
	if len(s.entries) > 0 {
		st.Epochs = make(map[string]uint64, len(s.entries))
		st.PersistPoints = make(map[string]int64, len(s.entries))
		for key, e := range s.entries {
			st.Epochs[key] = e.res.Epoch()
			st.PersistPoints[key] = e.rt.PersistPoints()
		}
	}
	s.mu.Unlock()
	return st
}

// Graphs lists the resident graph keys, most recently used first.
func (s *Server) Graphs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Close evicts every resident graph (closing their runtimes and removing
// their region files) and refuses further queries. Idempotent.
func (s *Server) Close() {
	for _, e := range s.detachAll() {
		e.close(false)
		s.ctr.evictions.Add(1)
	}
}

// Drain is the graceful shutdown: it refuses new work, waits up to timeout
// for in-flight queries and mutation batches to finish, then closes every
// runtime — the final MS_SYNC on each durable region — while KEEPING the
// region files, so the next process recovers every graph at its committed
// epoch with RecoverResident. Idempotent with Close (whichever runs first
// detaches the entries).
func (s *Server) Drain(timeout time.Duration) {
	evict := s.detachAll()
	deadline := time.Now().Add(timeout)
	for s.ctr.inFlight.Load() > 0 || s.ctr.mutQueued.Load() > 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, e := range evict {
		e.close(true)
		s.ctr.evictions.Add(1)
	}
}

// detachAll latches closed and removes every entry from the tables; callers
// then close the detached entries outside the lock.
func (s *Server) detachAll() []*entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	evict := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		evict = append(evict, e)
	}
	s.entries = map[string]*entry{}
	s.lru.Init()
	return evict
}

// entryFor returns the resident entry for spec, building (and evicting) as
// needed. Building happens outside the server lock; concurrent first
// queries for the same graph share one build through buildState instead of
// each constructing (and mostly discarding) a runtime.
func (s *Server) entryFor(spec GraphSpec) (*entry, error) {
	key := spec.Key()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.lruEl)
		s.mu.Unlock()
		return e, nil
	}
	if b, ok := s.builds[key]; ok {
		s.mu.Unlock()
		<-b.ready
		// An eviction racing the handoff is caught later, at enqueue.
		return b.e, b.err
	}
	b := &buildState{ready: make(chan struct{})}
	s.builds[key] = b
	s.mu.Unlock()
	// Every path releases the build slot, a build that panics included, so
	// no later query for key waits on it without end.
	defer func() {
		if b.e == nil && b.err == nil {
			b.err = fmt.Errorf("serve: building graph %s failed", key)
			s.mu.Lock()
			delete(s.builds, key)
			s.mu.Unlock()
		}
		close(b.ready)
	}()

	e, err := s.buildEntry(spec)

	s.mu.Lock()
	delete(s.builds, key)
	if err == nil && s.closed {
		err = ErrClosed
	}
	if err != nil {
		s.mu.Unlock()
		if e != nil {
			e.close(false)
		}
		b.err = err
		return nil, err
	}
	s.entries[key] = e
	e.lruEl = s.lru.PushFront(e)
	var evict []*entry
	for len(s.entries) > s.cfg.MaxGraphs {
		back := s.lru.Back()
		old := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, old.key)
		evict = append(evict, old)
	}
	s.mu.Unlock()
	b.e = e
	for _, old := range evict {
		old.close(false)
		s.ctr.evictions.Add(1)
	}
	return e, nil
}

// buildEntry constructs one resident graph. With DurableDir set and a region
// file already on disk — a previous process crashed mid-batch or Drained —
// the entry comes back through the recovery path instead of a fresh build;
// a region that fails to recover is removed and rebuilt fresh.
func (s *Server) buildEntry(spec GraphSpec) (*entry, error) {
	durablePath, recoverable := "", false
	if s.cfg.DurableDir != "" {
		if err := os.MkdirAll(s.cfg.DurableDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: durable dir: %w", err)
		}
		durablePath = filepath.Join(s.cfg.DurableDir, spec.regionName())
		_, err := os.Stat(durablePath)
		recoverable = err == nil
	}
	// A fresh build that cannot fit is refused from the spec, before any
	// work in proportion to the graph. A surviving region keeps the
	// geometry it was written with, so it is left to recovery.
	need := graph.MinBuildWords(spec.N, spec.arcs(), s.cfg.EpochSlots, s.cfg.MutBatchCap, s.cfg.MaxBatch)
	if !recoverable && need > s.cfg.MemWords {
		return nil, fmt.Errorf("serve: graph %s needs at least %d words, over MemWords %d",
			spec.Key(), need, s.cfg.MemWords)
	}
	g, err := graph.Generate(spec.Kind, spec.N, spec.M, spec.Seed^s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	if recoverable {
		if e, err := s.recoverEntry(spec, g, durablePath); err == nil {
			return e, nil
		}
		// Unrecoverable region: discard it and build fresh.
		os.Remove(durablePath)
	}
	opts := []ppm.Option{
		ppm.WithEngine(ppm.EngineNative),
		ppm.WithProcs(s.cfg.Procs),
		ppm.WithMemWords(s.cfg.MemWords),
		ppm.WithSeed(s.cfg.Seed),
	}
	if durablePath != "" {
		opts = append(opts, ppm.WithNativeDurable(durablePath))
	}
	if s.cfg.FaultRate > 0 {
		opts = append(opts, ppm.WithFaultRate(s.cfg.FaultRate))
	}
	e, err := s.buildPrograms(spec, g, ppm.New(opts...), durablePath)
	if err != nil {
		return nil, err
	}
	s.ctr.graphsBuilt.Add(1)
	e.start()
	return e, nil
}

// recoverEntry re-admits a graph from a surviving region file: Recover opens
// the file in rebuild mode, newEntry replays the identical registrations and
// allocations (loads are suppressed — the file holds the durable state), and
// Resume completes any interrupted mutation batch from its last committed
// root-chain step. Ready() is false while this runs.
func (s *Server) recoverEntry(spec GraphSpec, g *graph.Graph, durablePath string) (*entry, error) {
	s.replaying.Add(1)
	defer s.replaying.Add(-1)
	rt, err := ppm.Recover(durablePath, ppm.WithSeed(s.cfg.Seed))
	if err != nil {
		return nil, err
	}
	e, err := s.buildPrograms(spec, g, rt, durablePath)
	if err != nil {
		return nil, err
	}
	done, err := rt.Resume()
	if err == nil && !done {
		err = fmt.Errorf("serve: replay of %s did not complete", spec.Key())
	}
	if err == nil {
		err = e.res.Recovered()
	}
	if err != nil {
		rt.Close()
		return nil, err
	}
	s.ctr.graphsBuilt.Add(1)
	e.recovered = true
	e.start()
	return e, nil
}

// buildPrograms is newEntry on rt, with a build that panics reported as an
// error: rt is closed and its region file removed. A fresh build panics
// when its graph does not fit in MemWords; a rebuild on a recovered region
// also when that region's recorded setup does not match these programs, as
// when a build that allocates differently wrote it, and buildEntry then
// builds the graph fresh.
func (s *Server) buildPrograms(spec GraphSpec, g *graph.Graph, rt *ppm.Runtime, durablePath string) (e *entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			rt.Close()
			if durablePath != "" {
				os.Remove(durablePath)
			}
			e, err = nil, fmt.Errorf("serve: building graph %s: %v", spec.Key(), r)
		}
	}()
	return s.newEntry(spec, g, rt, durablePath), nil
}

// newEntry allocates the entry and builds its four programs in a fixed order
// — Resident (version ring + apply program) first, then the readers — so a
// recovered runtime replays registrations and allocations identically.
func (s *Server) newEntry(spec GraphSpec, g *graph.Graph, rt *ppm.Runtime, durablePath string) *entry {
	// Arc capacity per version slot: the base arcs plus a quarter growth
	// headroom plus one full batch, so sustained insert-heavy workloads have
	// room before ErrRunFailed-style capacity refusals.
	arcCap := len(g.Adj) + len(g.Adj)/4 + 2*s.cfg.MutBatchCap
	res := graph.NewResident("serve", g, s.cfg.EpochSlots, arcCap, s.cfg.MutBatchCap)
	e := &entry{
		srv:         s,
		key:         spec.Key(),
		n:           g.N,
		rt:          rt,
		res:         res,
		durablePath: durablePath,
		ms:          graph.NewMultiBFS("serve", res, s.cfg.MaxBatch),
		cc:          graph.Components("serve", res),
		pr:          graph.PageRank("serve", res, s.cfg.PageRankIters),
		queue:       make(chan *pending, s.cfg.MaxQueue+s.cfg.MaxMutQueue),
		quit:        make(chan struct{}),
		memo:        make(map[memoKey]*list.Element),
		memoLRU:     list.New(),
	}
	res.Build(rt)
	e.ms.Build(rt)
	e.cc.Build(rt)
	e.pr.Build(rt)
	return e
}

// ---- per-graph entry ----

// pending is one queued request and its completion slot. Reads carry the
// epoch pinned at admission; a mutation carries its batch instead.
type pending struct {
	q      Query
	epoch  uint64
	mut    *graph.MutationBatch // non-nil: this is a mutation
	expiry time.Time
	res    *Result
	err    error
	done   chan struct{}

	// state: 0 queued, 1 claimed by the runner, 2 expired by the waiter.
	state atomic.Int32
}

// claim is the runner taking ownership; fails if the waiter expired first.
func (p *pending) claim() bool { return p.state.CompareAndSwap(0, 1) }

// expire is the waiter giving up; fails if the runner claimed first.
func (p *pending) expire() bool { return p.state.CompareAndSwap(0, 2) }

func (p *pending) finish(r *Result, err error) {
	p.res, p.err = r, err
	close(p.done)
}

// memoKey names one memoized answer: results are per graph version, so the
// epoch is part of the key and stale versions are pruned as the ring
// advances. A kind without a source keys on source 0.
type memoKey struct {
	kind   string
	source int
	epoch  uint64
}

// memoEntry is one memoized answer. Only the summary is kept — a raw BFS
// level row is n words, and nothing downstream reads more than the summary.
// hit records that a read was answered from it, the evidence a kind's fill
// asks for before it answers the same source again at a newer epoch.
type memoEntry struct {
	key memoKey
	res *Result
	hit bool
}

// entry is one resident graph: its runtime, version ring, built programs,
// runner, and memoized results.
type entry struct {
	srv   *Server
	key   string
	n     int // vertex count, fixed under mutation
	rt    *ppm.Runtime
	res   *graph.Resident
	ms    *graph.MultiBFS
	cc    *graph.CC
	pr    *graph.PR
	lruEl *list.Element
	// durablePath is the runtime's backing region file ("" when the server
	// runs without DurableDir); close(false) removes it after the runtime's
	// final msync, close(true) keeps it for recovery.
	durablePath string
	recovered   bool // re-admitted from a surviving region file, not built fresh

	queue chan *pending
	quit  chan struct{}
	wg    sync.WaitGroup

	// Memoized answers in one LRU bounded by LevelCacheEntries: a graph
	// version is immutable, so a key is computed at most once while it stays
	// resident. Mutation commits prune epochs that left the version ring;
	// eviction discards everything with the entry.
	memoMu  sync.Mutex
	memo    map[memoKey]*list.Element // key -> *memoEntry element
	memoLRU *list.List
}

func (e *entry) start() {
	e.wg.Add(1)
	go e.run()
}

// enqueue hands a pending request to the runner.
func (e *entry) enqueue(p *pending) error {
	select {
	case <-e.quit:
		return ErrEvicted
	default:
	}
	select {
	case e.queue <- p:
		return nil
	case <-e.quit:
		return ErrEvicted
	default:
		// Queue full: the global admission bounds are the real limiters; a
		// full per-entry queue means they are saturated too.
		return ErrOverloaded
	}
}

// close stops the runner (draining its queue with ErrEvicted) and releases
// the runtime's memory region. A durable entry is closed in lifecycle order:
// Runtime.Close performs the final MS_SYNC and marks the region complete,
// and only then is the backing file removed — eviction ends the graph's
// durable epoch, it never leaves a half-written region behind. keepRegion
// (Drain) skips the removal so a restarted process can recover the graph.
func (e *entry) close(keepRegion bool) {
	close(e.quit)
	e.wg.Wait()
	for {
		select {
		case p := <-e.queue:
			if p.claim() {
				p.finish(nil, ErrEvicted)
			}
		default:
			e.rt.Close()
			if e.durablePath != "" && !keepRegion {
				os.Remove(e.durablePath)
			}
			return
		}
	}
}

// cachedResult answers q from the memo at the pinned epoch, or nil.
func (e *entry) cachedResult(q Query, epoch uint64) *Result {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	el, ok := e.memo[memoKey{q.Kind, q.Source, epoch}]
	if !ok {
		return nil
	}
	e.memoLRU.MoveToFront(el)
	me := el.Value.(*memoEntry)
	me.hit = true
	r := *me.res
	r.Cached = true
	r.Batched = 1
	return &r
}

// remember memoizes the answer to a key not yet memoized, evicting the least
// recently used past LevelCacheEntries. The runner is the memo's only
// writer, and serveEpoch runs only keys it found missing.
//
// A filled key, one no waiter asked for, is not placed as the most recently
// used: it goes just ahead of the most recent older answer for its source
// (the one staleSources found), so it ranks by the reads that answer had,
// behind the keys reads asked for since.
func (e *entry) remember(k memoKey, res *Result, filled bool) {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	me := &memoEntry{key: k, res: res}
	var older *list.Element
	if filled {
		older = e.olderAnswer(k)
	}
	if older != nil {
		e.memo[k] = e.memoLRU.InsertBefore(me, older)
	} else {
		e.memo[k] = e.memoLRU.PushFront(me)
	}
	for e.memoLRU.Len() > e.srv.cfg.LevelCacheEntries {
		back := e.memoLRU.Back()
		e.memoLRU.Remove(back)
		delete(e.memo, back.Value.(*memoEntry).key)
	}
}

// olderAnswer returns the most recently used memo element of k's kind and
// source at an epoch older than k's, or nil. The caller holds memoMu.
func (e *entry) olderAnswer(k memoKey) *list.Element {
	for el := e.memoLRU.Front(); el != nil; el = el.Next() {
		o := el.Value.(*memoEntry).key
		if o.kind == k.kind && o.source == k.source && o.epoch < k.epoch {
			return el
		}
	}
	return nil
}

// staleSources returns up to free sources of kind that the memo answered
// at an epoch older than ep, and not at ep, in an answer some read was
// served from (memoEntry.hit), most recently used first, none of them in
// srcs. A source read again after its answer was memoized is the evidence
// that it will be read at ep too.
func (e *entry) staleSources(kind string, ep uint64, srcs []int, free int) []int {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	var out []int
	for el := e.memoLRU.Front(); el != nil && len(out) < free; el = el.Next() {
		me := el.Value.(*memoEntry)
		k := me.key
		if !me.hit || k.kind != kind || k.epoch >= ep || slices.Contains(srcs, k.source) || slices.Contains(out, k.source) {
			continue
		}
		if _, ok := e.memo[memoKey{kind, k.source, ep}]; !ok {
			out = append(out, k.source)
		}
	}
	return out
}

// pruneMemos drops memoized answers for epochs that left the version ring
// (called after each committed mutation batch).
func (e *entry) pruneMemos() {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	var next *list.Element
	for el := e.memoLRU.Front(); el != nil; el = next {
		next = el.Next()
		me := el.Value.(*memoEntry)
		if _, ok := e.res.SlotFor(me.key.epoch); !ok {
			e.memoLRU.Remove(el)
			delete(e.memo, me.key)
		}
	}
}

// run is the entry's runner goroutine: it drains the queue, coalesces
// same-kind work into single runs, and answers every claimed waiter. Reads
// are served before the mutations drained alongside them — the reads hold
// epoch pins the mutations would otherwise age toward the ring's edge.
func (e *entry) run() {
	defer e.wg.Done()
	for {
		var first *pending
		select {
		case first = <-e.queue:
		case <-e.quit:
			return
		}
		// Opportunistically drain whatever else is queued right now; one
		// pass groups it by kind.
		batch := []*pending{first}
	drain:
		for {
			select {
			case p := <-e.queue:
				batch = append(batch, p)
			default:
				break drain
			}
		}
		reads := make([][]*pending, len(kinds))
		var muts []*pending
		now := time.Now()
		for _, p := range batch {
			if !p.claim() {
				continue // waiter expired; nothing owes it an answer
			}
			if now.After(p.expiry) {
				p.finish(nil, ErrDeadline)
				continue
			}
			if p.mut != nil {
				muts = append(muts, p)
				continue
			}
			i := kindIndex(p.q.Kind)
			reads[i] = append(reads[i], p)
		}
		for i, ps := range reads {
			for ep, grp := range groupByEpoch(ps) {
				e.serveEpoch(&kinds[i], ep, grp)
			}
		}
		e.serveMut(muts)
	}
}

// finishExpired answers deadline-passed waiters and returns the live rest.
func finishExpired(ps []*pending) []*pending {
	now := time.Now()
	live := ps[:0]
	for _, p := range ps {
		if now.After(p.expiry) {
			p.finish(nil, ErrDeadline)
			continue
		}
		live = append(live, p)
	}
	return live
}

// groupByEpoch partitions claimed waiters by their pinned epoch, preserving
// arrival order within each group.
func groupByEpoch(ps []*pending) map[uint64][]*pending {
	out := make(map[uint64][]*pending)
	for _, p := range ps {
		out[p.epoch] = append(out[p.epoch], p)
	}
	return out
}

// finishAll answers every waiter in ps with err.
func finishAll(ps []*pending, err error) {
	for _, p := range ps {
		p.finish(nil, err)
	}
}

// runOnce runs one program for the claimed waiters in *ps: it takes a
// cross-entry run slot, runs, and releases. While the slot is contended it
// sweeps the waiters — expired ones are answered ErrDeadline instead of
// holding a doomed reservation, eviction answers everyone ErrEvicted — and
// gives up when none is left. A run is counted when the runtime took the
// program — it completed, did not, or stopped at a failed durable barrier —
// and not when the input or a closed runtime refused it. runOnce reports
// whether the run succeeded; if not, every waiter left in *ps has its
// answer: a failed run is ErrRunFailed (500), a closed runtime an eviction
// (503), a refused input its own error.
func (e *entry) runOnce(ps *[]*pending, run func() (bool, error)) bool {
	for held := false; !held; {
		select {
		case e.srv.runSem <- struct{}{}:
			held = true
		case <-time.After(5 * time.Millisecond):
		case <-e.quit:
			finishAll(*ps, ErrEvicted)
			return false
		}
		if *ps = finishExpired(*ps); len(*ps) == 0 {
			if held {
				<-e.srv.runSem
			}
			return false
		}
	}
	ok, err := run()
	<-e.srv.runSem
	if err == nil || errors.Is(err, ppm.ErrDurableSync) {
		e.srv.ctr.runs.Add(1)
	}
	switch {
	case err == nil && ok:
		return true
	case err == nil:
		err = ErrRunFailed
	case errors.Is(err, ppm.ErrDurableSync):
		err = fmt.Errorf("%w: %v", ErrRunFailed, err)
	case errors.Is(err, ppm.ErrRuntimeClosed):
		err = ErrEvicted
	}
	finishAll(*ps, err)
	return false
}

// kind is one read query kind, a row of the kinds table. One run of the
// kind's program answers up to width distinct sources; answer summarises the
// i-th of them (the caller fills in Kind, Source, N and Epoch). fill, when
// set, may add sources no waiter asked for to a run's srcs at epoch ep, whose
// answers are memoized like the rest.
type kind struct {
	name    string
	sourced bool // answers depend on Query.Source; otherwise it is 0
	width   func(e *entry) int
	run     func(e *entry, srcs []int, slot int) (bool, error)
	answer  func(e *entry, i, src int) *Result
	fill    func(e *entry, srcs []int, ep uint64) []int
}

// kinds is every read kind, in the order the runner serves them. A new kind
// is one row here plus its program in newEntry.
var kinds = []kind{
	{
		name:  "cc",
		width: func(*entry) int { return 1 },
		run:   func(e *entry, _ []int, slot int) (bool, error) { return e.cc.RunAt(slot) },
		answer: func(e *entry, _, _ int) *Result {
			comp := map[uint64]struct{}{}
			var sum uint64
			for _, l := range e.cc.Output() {
				comp[l] = struct{}{}
				sum += l * 31
			}
			return &Result{Checksum: sum, Extra: uint64(len(comp))}
		},
	},
	{
		name:  "pagerank",
		width: func(*entry) int { return 1 },
		run:   func(e *entry, _ []int, slot int) (bool, error) { return e.pr.RunAt(slot) },
		answer: func(e *entry, _, _ int) *Result {
			var sum uint64
			for _, r := range e.pr.Output() {
				sum = sum*31 + r
			}
			return &Result{Checksum: sum, Extra: uint64(e.srv.cfg.PageRankIters)}
		},
	},
	{
		name:    "bfs",
		sourced: true,
		width:   func(e *entry) int { return e.ms.KMax() },
		run:     func(e *entry, srcs []int, slot int) (bool, error) { return e.ms.RunBatchAt(srcs, slot) },
		answer:  func(e *entry, i, src int) *Result { return summarizeBFS(src, e.ms.Levels(i)) },
		// A sweeping batch costs little more for each source it adds (see
		// graph.MultiBFS), so when the run would sweep at the width it can
		// fill, its free slots take the sources answered at an older epoch,
		// and read from the memo there, but not answered at ep, most
		// recently used first: the first cold BFS after a commit answers the
		// last epoch's hot sources in the same run. The fill pays off only
		// where those sources are read again at ep; a source its old epoch
		// read once is not filled.
		fill: func(e *entry, srcs []int, ep uint64) []int {
			kMax := e.ms.KMax()
			if len(srcs) == kMax || !e.ms.Sweeps(kMax) {
				return srcs
			}
			more := e.staleSources("bfs", ep, srcs, kMax-len(srcs))
			if len(more) == 0 || !e.ms.Sweeps(len(srcs)+len(more)) {
				return srcs
			}
			return append(srcs, more...)
		},
	},
}

// kindIndex returns the index of the kinds row named name, or -1.
func kindIndex(name string) int {
	return slices.IndexFunc(kinds, func(k kind) bool { return k.name == name })
}

// serveEpoch answers one kind's waiters pinned at epoch ep. A waiter whose
// key was memoized since its admission is answered from the memo; the rest
// are answered by runs of at most width distinct keys each — duplicates ride
// along, leftovers wait for the next run, and the kind's fill may add keys
// no waiter asked for — and every key a run answers is memoized.
func (e *entry) serveEpoch(k *kind, ep uint64, ps []*pending) {
	cold := ps[:0]
	for _, p := range ps {
		if r := e.cachedResult(p.q, ep); r != nil {
			e.srv.ctr.cacheHits.Add(1)
			p.finish(r, nil)
		} else {
			cold = append(cold, p)
		}
	}
	ps = cold
	if len(ps) == 0 {
		return
	}
	slot, ok := e.res.SlotFor(ep)
	if !ok {
		finishAll(ps, ErrSnapshotGone)
		return
	}
	width := k.width(e)
	for len(ps) > 0 {
		at := map[int]int{} // source -> its index in this run
		var srcs []int
		var runPs, rest []*pending
		for _, p := range ps {
			if _, ok := at[p.q.Source]; !ok {
				if len(srcs) == width {
					rest = append(rest, p)
					continue
				}
				at[p.q.Source] = len(srcs)
				srcs = append(srcs, p.q.Source)
			}
			runPs = append(runPs, p)
		}
		ps = rest
		if k.fill != nil {
			srcs = k.fill(e, srcs, ep)
		}
		if !e.runOnce(&runPs, func() (bool, error) { return k.run(e, srcs, slot) }) {
			continue
		}
		rows := make([]*Result, len(srcs))
		for i, src := range srcs {
			r := k.answer(e, i, src)
			r.Kind, r.Source, r.N, r.Epoch = k.name, src, e.n, ep
			e.remember(memoKey{k.name, src, ep}, r, i >= len(at))
			rows[i] = r
		}
		e.srv.ctr.readRuns.Add(1)
		e.srv.ctr.runQueries.Add(int64(len(runPs)))
		for _, p := range runPs {
			r := *rows[at[p.q.Source]]
			r.Batched = len(runPs)
			p.finish(&r, nil)
		}
	}
}

// serveMut applies drained mutation batches one at a time (each is one
// root-chain program run; on a durable runtime its commit is a persistence
// point — when finish fires, the batch has already survived kill-9).
func (e *entry) serveMut(ps []*pending) {
	for _, p := range ps {
		one := []*pending{p}
		if !e.runOnce(&one, func() (bool, error) { return e.res.Apply(*p.mut) }) {
			continue
		}
		e.srv.ctr.mutations.Add(1)
		e.pruneMemos()
		p.finish(&Result{Kind: "mutate", N: e.n, Epoch: e.res.Epoch(),
			Extra: uint64(p.mut.Edges()), Checksum: uint64(e.res.Arcs())}, nil)
	}
}

// summarizeBFS reduces a level row to the wire summary.
func summarizeBFS(src int, lv []uint64) *Result {
	const inf = ^uint64(0)
	reached := 0
	var maxL, sum uint64
	for _, l := range lv {
		if l == inf {
			continue
		}
		reached++
		if l > maxL {
			maxL = l
		}
		sum = sum*31 + l + 1
	}
	return &Result{Kind: "bfs", Source: src, N: len(lv),
		Reached: reached, MaxLevel: maxL, Checksum: sum}
}
