package native

import (
	"fmt"

	"repro/internal/pmem"
)

// The native engine's persistent memory is one flat word slice, and every
// worker carves its allocations out of it through its own arm: a segment of
// the global region that only this worker's Ctx bumps, with plain loads and
// stores. A Ctx is driven by one goroutine at a time (its resident worker
// during a run, or RunOnAll's goroutine for it, both under runMu), so the
// fast path needs no atomic and no lock — where a global bump pointer would
// serialize allocation-heavy rounds on one contended CAS. A drained arm
// refills by reserving a segment from the global bump pointer (a CAS, rare);
// allocations too large for a segment, or refills that no longer fit, spill
// straight into the global region. Addresses remain plain word offsets into
// the one backing slice, so arrays, Gather/Scatter, CAM, and persistence
// points never learn which arm produced them — and the model engine keeps
// its faithful single-heap cost semantics untouched.

// maxSegWords caps the segment an arm reserves per refill.
const maxSegWords = 1 << 15

// segWords sizes each arm's segment for cfg: maxSegWords, shrunk so P
// segments can never claim more than a quarter of the memory, rounded down
// to whole blocks and at least four of them.
func segWords(cfg Config) int {
	s := min(maxSegWords, cfg.MemWords/(4*cfg.P))
	s = max(s, 4*cfg.BlockWords)
	return s / cfg.BlockWords * cfg.BlockWords
}

// AllocStats summarizes allocator behaviour for one runtime: how often the
// workers' arms went back to the global region.
type AllocStats struct {
	Refills   int64 // segment refills from the global region
	Spills    int64 // allocations routed straight to the global region
	HeapWords int64 // high-water mark of the global region bump pointer
}

// AllocStats reports the allocator counters accumulated so far.
func (rt *Runtime) AllocStats() AllocStats {
	out := AllocStats{HeapWords: rt.heap.Load()}
	for _, w := range rt.workers {
		out.Refills += w.refills
		out.Spills += w.spills
	}
	return out
}

// tryReserve CASes n words out of the global region at a block boundary, or
// reports that they no longer fit.
func (rt *Runtime) tryReserve(n int) (pmem.Addr, bool) {
	b := int64(rt.cfg.BlockWords)
	for {
		cur := rt.heap.Load()
		start := (cur + b - 1) / b * b
		if start+int64(n) > int64(len(rt.mem)) {
			return 0, false
		}
		if rt.heap.CompareAndSwap(cur, start+int64(n)) {
			if reg := rt.region; reg != nil {
				// Publish the raised high-water mark before the caller can
				// write into the block: a recovered runtime restarts its bump
				// pointer at the durable mark, so every address ever handed
				// out must be at or below it. A store suffices: SIGKILL keeps
				// the page cache, and run/phase barriers MS_SYNC the header.
				reg.RaiseHeapHW(start + int64(n))
			}
			return pmem.Addr(start), true
		}
	}
}

// reserve is tryReserve or the canonical exhaustion panic.
func (rt *Runtime) reserve(n int) pmem.Addr {
	a, ok := rt.tryReserve(n)
	if !ok {
		panic(fmt.Sprintf("native: heap exhausted (%d words requested); raise MemWords", n))
	}
	return a
}

// Alloc reserves n fresh zeroed words from this worker's arm: a plain bump
// of its segment cursor unless the segment needs a refill. Sizes are rounded
// up to whole blocks so every address handed out is block-aligned, matching
// the model machine's allocator granularity (and the WAR checker's blocks).
func (w *Ctx) Alloc(n int) pmem.Addr {
	rt := w.rt
	b := int64(rt.cfg.BlockWords)
	need := (int64(n) + b - 1) / b * b
	if need > int64(rt.segWords)/2 {
		// Oversized for a segment: bumping it through the arm would waste
		// most of a refill, so go straight to the global region.
		w.spills++
		return rt.reserve(int(need))
	}
	if w.segCur+need > w.segEnd {
		// Segment drained; its tail words stay unused.
		base, ok := rt.tryReserve(rt.segWords)
		if !ok {
			// The global region cannot host a whole segment any more;
			// spill this allocation into whatever remains (or panic).
			w.spills++
			return rt.reserve(int(need))
		}
		w.segCur, w.segEnd = int64(base), int64(base)+int64(rt.segWords)
		w.refills++
	}
	a := w.segCur
	w.segCur += need
	return pmem.Addr(a)
}
