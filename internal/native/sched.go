package native

import (
	"sync/atomic"
	"time"
)

// SchedStats summarizes scheduler behaviour for one runtime. The shape
// mirrors AllocStats — per-worker plain counters aggregated after the run.
// The interesting ratios: StealTries per unit work is the bus traffic idle
// thieves generate; BatchTasks/Steals is the realized batch size (at most
// stealBatch).
type SchedStats struct {
	Steals     int64 // successful grabs (any size)
	StealTries int64 // deque probes, including misses
	BatchTasks int64 // tasks obtained by stealing (sum of batch sizes)
	Parks      int64 // times a worker blocked waiting for work (see park)
}

// SchedStats reports the scheduler counters accumulated so far.
func (rt *Runtime) SchedStats() SchedStats {
	var out SchedStats
	for _, w := range rt.workers {
		out.Steals += w.steals
		out.StealTries += w.stealTries
		out.BatchTasks += w.batchTasks
		out.Parks += w.parks
	}
	return out
}

const (
	// spinWindow is how many consecutive empty probes of every deque an idle
	// worker makes, yielding its thread between them, before it parks.
	spinWindow = 32
	// parkFallback bounds one park: a parked worker that no spawn and no
	// run end woke looks for work again after this long. Only a lost wake
	// would leave a worker asleep beside waiting work, so this caps what
	// one could cost.
	parkFallback = 2 * time.Millisecond
)

// lineCounter is a counter alone on a 64-byte cache line. Allocated on its
// own it falls in the 64-byte size class, which is line-aligned.
type lineCounter struct {
	n atomic.Int32
	_ [60]byte
}

// park blocks an idle worker until a spawn or the end of the run hands it
// a token, or parkFallback passes. The worker registers first — its parked
// flag, then the runtime's sleepers count — and only then re-checks every
// deque. A spawn pushes first and reads the count after. Go's atomics are
// sequentially consistent, so either the spawn sees the sleeper and wakes
// it, or the re-check sees the task.
//
// Whoever clears a set parked flag (claim, or the worker itself) takes the
// worker off the sleepers count, and a claimer owes it exactly one token,
// so the token channel is empty whenever the worker is not parked.
func (w *Ctx) park() {
	rt := w.rt
	w.parked.Store(true)
	rt.sleepers.n.Add(1)
	if rt.done.Load() || rt.workVisible() {
		w.unpark()
		return
	}
	w.parks++
	w.timer.Reset(parkFallback)
	select {
	case <-w.wake:
		if !w.timer.Stop() {
			<-w.timer.C
		}
	case <-w.timer.C:
		if w.unpark() {
			w.fallbacks++
		}
	}
}

// unpark deregisters a worker that stopped waiting on its own, and reports
// whether it did. If a waker claimed it first, its token is on the way and
// is taken here.
func (w *Ctx) unpark() bool {
	if w.parked.Swap(false) {
		w.rt.sleepers.n.Add(-1)
		return true
	}
	<-w.wake
	return false
}

// claim wakes w if it is parked, and reports whether it did. The load
// first keeps a scan from taking w's line, which its hot counters share,
// when w is awake.
func (w *Ctx) claim() bool {
	if !w.parked.Load() || !w.parked.CompareAndSwap(true, false) {
		return false
	}
	w.rt.sleepers.n.Add(-1)
	w.wake <- struct{}{}
	return true
}

// wakeOne wakes the first parked worker after worker from, if any.
func (rt *Runtime) wakeOne(from int) {
	n := len(rt.workers)
	for i := 1; i < n; i++ {
		if rt.workers[(from+i)%n].claim() {
			return
		}
	}
}

// endRun ends the current run: schedLoop exits at its next check, and
// every parked worker is woken to make it.
func (rt *Runtime) endRun() {
	rt.done.Store(true)
	for _, w := range rt.workers {
		w.claim()
	}
}

// workVisible reports whether any deque holds a task: a parking worker's
// re-check.
func (rt *Runtime) workVisible() bool {
	for _, w := range rt.workers {
		if w.dq.size() > 0 {
			return true
		}
	}
	return false
}
