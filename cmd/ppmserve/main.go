// ppmserve runs the resident query service (ppm/serve) over the native
// runtime: graphs stay loaded, programs stay built, and concurrent BFS /
// connectivity / PageRank queries — plus durable edge-mutation batches — are
// admitted, batched, and answered over a small JSON HTTP API.
//
//	go run ./cmd/ppmserve -addr :8080 -procs 8 -max-batch 8
//
// API:
//
//	POST /query   {"graph":{"kind":"rand","n":100000,"m":200000,"seed":42},
//	               "kind":"bfs","source":7,"deadline_ms":250}
//	POST /mutate  {"graph":{...},"insert":[[1,2]],"delete":[[3,4]]}
//	GET  /graphs  resident graph keys, most recently used first
//	GET  /statsz  admission/batching/cache/epoch counters
//	GET  /healthz liveness
//	GET  /readyz  readiness (503 while crash-recovery replay is in progress)
//
// Overload answers 429 (admission queue full) or 503 (deadline passed while
// queued, graph evicted, snapshot aged out, shutting down). With -durable-dir
// set, startup recovers any surviving region files before readiness flips,
// and SIGTERM/SIGINT drains: admission stops, in-flight queries and any open
// mutation batch finish, and every region is synced before exit. The
// benchmark of record (benchmark/, workloads serve-hot and serve-rw) drives
// the same serve.Handler under closed-loop load; CI's serve-smoke job starts
// this binary and checks its drain and restart recovery.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/ppm/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		procs       = flag.Int("procs", 8, "processors per graph runtime")
		maxGraphs   = flag.Int("max-graphs", 2, "resident graph cache size")
		maxBatch    = flag.Int("max-batch", 8, "multi-source BFS batch width (at most 15)")
		maxQueue    = flag.Int("max-queue", 256, "query admission bound (429 past it)")
		mutQueue    = flag.Int("mut-queue", 32, "mutation admission bound (429 past it)")
		maxRuns     = flag.Int("max-runs", 1, "concurrent program runs across graphs")
		deadline    = flag.Duration("deadline", 2*time.Second, "default per-query deadline")
		memWords    = flag.Int("mem-words", 1<<24, "words per graph runtime region")
		levelCache  = flag.Int("level-cache", 64, "memoized answers per graph, every kind")
		prIters     = flag.Int("pr-iters", 10, "PageRank iterations")
		seed        = flag.Uint64("seed", 42, "graph generation seed")
		durableDir  = flag.String("durable-dir", "", "back each resident graph with an mmap'd region file under this dir (empty = volatile)")
		epochSlots  = flag.Int("epoch-slots", 2, "CSR epoch ring slots (snapshot window = slots-1 batches)")
		mutBatchCap = flag.Int("mut-batch-cap", 1024, "max edges per mutation batch")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for draining in-flight work")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		Procs:             *procs,
		MaxGraphs:         *maxGraphs,
		MaxBatch:          *maxBatch,
		MaxQueue:          *maxQueue,
		MaxMutQueue:       *mutQueue,
		MaxConcurrentRuns: *maxRuns,
		DefaultDeadline:   *deadline,
		MemWords:          *memWords,
		LevelCacheEntries: *levelCache,
		PageRankIters:     *prIters,
		Seed:              *seed,
		DurableDir:        *durableDir,
		EpochSlots:        *epochSlots,
		MutBatchCap:       *mutBatchCap,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppmserve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: serve.Handler(srv)}

	// Recover surviving regions in the background: the listener is up
	// immediately (liveness), but /readyz answers 503 until every recovered
	// graph has replayed its un-committed tail.
	if *durableDir != "" {
		go func() {
			if n := srv.RecoverResident(); n > 0 {
				fmt.Printf("ppmserve: recovered %d durable graph(s) from %s\n", n, *durableDir)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "ppmserve: draining")
		// Stop accepting connections but let in-flight handlers return, then
		// drain the service: admitted queries and any open mutation batch
		// complete, and each durable region gets a final sync on close.
		hs.Close()
		srv.Drain(*drainWait)
	}()

	fmt.Printf("ppmserve: listening on %s (procs=%d, batch=%d, queue=%d, mut-queue=%d)\n",
		ln.Addr(), *procs, *maxBatch, *maxQueue, *mutQueue)
	err = hs.Serve(ln)
	srv.Drain(*drainWait)
	if err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "ppmserve: %v\n", err)
		os.Exit(1)
	}
}
