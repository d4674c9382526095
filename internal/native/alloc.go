package native

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
)

// The native engine's persistent memory is one flat word slice, but carving
// it into allocations is sharded: every worker allocates from its own shard
// (worker id mod Shards), whose fast path is a single atomic add on
// shard-private state — no cross-processor CAS traffic, which is exactly
// where allocation-heavy rounds used to serialize on the old global bump
// pointer. A shard that drains its current segment refills by reserving a
// coarse SegWords region from the global bump pointer (rare, mutex-guarded);
// allocations too large for a segment, or refills that no longer fit, spill
// straight into the global region. Addresses remain plain word offsets into
// the one backing slice, so arrays, Gather/Scatter, CAM, and persistence
// points never learn which shard produced them — and the model engine keeps
// its faithful single-heap cost semantics untouched.

// segment is one shard's current carve of the global region. cur bumps
// atomically; end is immutable after the segment is published.
type segment struct {
	cur atomic.Int64
	end int64
}

// shard is one independent allocator arm. The mutex guards only the refill
// path; the bump fast path never takes it. Trailing padding keeps
// neighbouring shards' hot words off one cache line.
type shard struct {
	seg     atomic.Pointer[segment]
	mu      sync.Mutex
	refills atomic.Int64
	spills  atomic.Int64
	_       [64]byte
}

// AllocStats summarizes allocator behaviour for one runtime: how the memory
// is sharded and how often shards went back to the global region.
type AllocStats struct {
	Shards    int   // independent allocator arms (workers map id mod Shards)
	SegWords  int   // words reserved per shard segment refill
	Refills   int64 // segment refills from the global region
	Spills    int64 // allocations routed straight to the global region
	HeapWords int64 // high-water mark of the global region bump pointer
}

// AllocStats reports the allocator counters accumulated so far.
func (rt *Runtime) AllocStats() AllocStats {
	out := AllocStats{
		Shards:    rt.cfg.Shards,
		SegWords:  rt.cfg.SegWords,
		HeapWords: rt.heap.Load(),
	}
	for i := range rt.shards {
		out.Refills += rt.shards[i].refills.Load()
		out.Spills += rt.shards[i].spills.Load()
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

// shardAlloc reserves n fresh zeroed words for shard si. Sizes are rounded
// up to whole blocks so every address handed out is block-aligned, matching
// the model machine's allocator granularity.
func (rt *Runtime) shardAlloc(si, n int) pmem.Addr {
	b := int64(rt.cfg.BlockWords)
	need := (int64(n) + b - 1) / b * b
	sh := &rt.shards[si]
	if need > int64(rt.cfg.SegWords)/2 {
		// Oversized for a segment: bumping it through the shard would waste
		// most of a refill, so go straight to the global region.
		sh.spills.Add(1)
		return rt.reserve(int(need))
	}
	for {
		s := sh.seg.Load()
		if s != nil {
			start := s.cur.Add(need) - need
			if start+need <= s.end {
				return pmem.Addr(start)
			}
			// Segment drained. The failed bump wastes nothing: the tail
			// words stay unused either way.
		}
		sh.mu.Lock()
		if sh.seg.Load() == s {
			base, ok := rt.tryReserve(rt.cfg.SegWords)
			if !ok {
				// The global region cannot host a whole segment any more;
				// spill this allocation into whatever remains (or panic).
				sh.spills.Add(1)
				sh.mu.Unlock()
				return rt.reserve(int(need))
			}
			ns := &segment{end: int64(base) + int64(rt.cfg.SegWords)}
			ns.cur.Store(int64(base))
			sh.seg.Store(ns)
			sh.refills.Add(1)
		}
		sh.mu.Unlock()
	}
}
