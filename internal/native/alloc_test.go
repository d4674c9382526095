package native

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// TestShardAllocStorm hammers the allocator from every worker at once —
// thousands of small, odd-sized allocations racing across the workers' arms
// and forcing many segment refills — and then proves no word was handed out
// twice: each allocation stamps every word it owns with its task index, so
// any cross-arm double-allocation leaves one loser whose stamp was
// overwritten. Run under -race this also checks that an arm's plain bump is
// only ever driven by its own worker.
func TestShardAllocStorm(t *testing.T) {
	const (
		p     = 8
		tasks = 4096
	)
	// A small memory makes small segments (MemWords/(4P) = 4096 words), so
	// the storm's ~45k allocated words drain and refill the arms many times.
	rt := New(Config{P: p, MemWords: 1 << 17, Seed: 7})
	starts := rt.HeapAllocBlocks(tasks)
	body := rt.Register("alloc", func(c *Ctx) {
		for i := int(c.Arg(0)); i < int(c.Arg(1)); i++ {
			n := 1 + i%13
			a := c.Alloc(n)
			for j := 0; j < n; j++ {
				c.Write(a+pmem.Addr(j), uint64(i+1))
			}
			c.Write(starts+pmem.Addr(i), uint64(a))
		}
		c.Done()
	})
	root := rt.Register("root", func(c *Ctx) { c.ParallelFor(body, 0, tasks, 4, 0, 0) })
	if !rt.Run(root) {
		t.Fatal("run did not complete")
	}
	for i := 0; i < tasks; i++ {
		a := pmem.Addr(rt.MemRead(starts + pmem.Addr(i)))
		n := 1 + i%13
		for j := 0; j < n; j++ {
			if got := rt.MemRead(a + pmem.Addr(j)); got != uint64(i+1) {
				t.Fatalf("allocation %d word %d = %d, want %d (double allocation across arms)",
					i, j, got, i+1)
			}
		}
	}
	as := rt.AllocStats()
	if as.Refills == 0 {
		t.Error("expected segment refills under an allocation storm")
	}
	if as.HeapWords == 0 {
		t.Error("expected a non-zero heap high-water mark")
	}
}

// TestShardAllocAligned checks the arm's fast path preserves the model
// machine's allocator granularity: every address is block-aligned.
func TestShardAllocAligned(t *testing.T) {
	rt := New(Config{P: 1, MemWords: 1 << 16})
	b := rt.BlockWords()
	done := make(chan pmem.Addr, 3)
	fn := rt.Register("f", func(c *Ctx) {
		done <- c.Alloc(1)
		done <- c.Alloc(3)
		done <- c.Alloc(2 * b)
		c.Done()
	})
	if !rt.Run(fn) {
		t.Fatal("run did not complete")
	}
	for i := 0; i < 3; i++ {
		if a := <-done; int(a)%b != 0 {
			t.Fatalf("allocation %d at %d is not block-aligned (B=%d)", i, a, b)
		}
	}
}

// TestShardAllocSpill checks that allocations too large for an arm's segment
// take the spill path straight to the global region and are counted.
func TestShardAllocSpill(t *testing.T) {
	rt := New(Config{P: 2, MemWords: 1 << 13}) // segments of 1<<13/(4P) = 1024 words
	fn := rt.Register("big", func(c *Ctx) {
		a := c.Alloc(1000) // > half a segment: must spill
		c.Write(a+999, 7)
		c.Done()
	})
	if !rt.Run(fn) {
		t.Fatal("run did not complete")
	}
	if as := rt.AllocStats(); as.Spills == 0 {
		t.Errorf("expected a spill for an oversized allocation, stats %+v", as)
	}
}

// TestShardAllocExhaustionPanic drains a tiny memory through a worker's
// arm — segment refills, then the spill fallback once a whole segment no
// longer fits — and checks the canonical "raise MemWords" panic still fires
// deterministically at true exhaustion. Harness-side Alloc calls keep the
// panic on this goroutine so it is recoverable.
func TestShardAllocExhaustionPanic(t *testing.T) {
	rt := New(Config{P: 1, MemWords: 1 << 10}) // segments of 256 words
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("allocator never exhausted")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "raise MemWords") {
			t.Fatalf("panic %q does not carry the raise-MemWords hint", msg)
		}
	}()
	for i := 0; i < 1<<10; i++ {
		rt.workers[0].Alloc(64)
	}
}

// TestShardAllocSpillFallbackUsesTail checks the refill fallback: when the
// global region can no longer host a whole segment, a small allocation must
// still succeed out of the remaining tail (counted as a spill) instead of
// failing early.
func TestShardAllocSpillFallbackUsesTail(t *testing.T) {
	const memWords = 1 << 10
	rt := New(Config{P: 1, MemWords: memWords})
	// Segments are memWords/4 = 256 words: three refills take 768 of the
	// 1016 usable words, and a fourth cannot fit in the 248 left.
	w := rt.workers[0]
	for i := 0; i < memWords/8; i++ {
		got := false
		func() {
			defer func() { got = recover() == nil }()
			w.Alloc(8)
		}()
		if !got {
			// Exhausted — every usable word was handed out first.
			as := rt.AllocStats()
			if as.Spills == 0 {
				t.Fatalf("exhausted without ever spilling into the tail, stats %+v", as)
			}
			if as.Refills != 3 {
				t.Fatalf("Refills = %d, want exactly 3 in a three-segment memory", as.Refills)
			}
			return
		}
	}
	t.Fatal("allocator never exhausted a three-segment memory")
}

// TestRunOnAllShardAlloc races every worker's first allocation under
// RunOnAll, whose chains drive the workers' arms from goroutines of their
// own: each arm refills exactly once from the global region, and the
// allocations are disjoint.
func TestRunOnAllShardAlloc(t *testing.T) {
	const p = 8
	rt := New(Config{P: p, MemWords: 1 << 18})
	slots := rt.HeapAllocBlocks(p * rt.BlockWords())
	fn := rt.Register("claim", func(c *Ctx) {
		a := c.Alloc(4)
		for j := 0; j < 4; j++ {
			c.Write(a+pmem.Addr(j), uint64(c.ProcID()+1))
		}
		c.Write(slots+pmem.Addr(c.ProcID()*rt.BlockWords()), uint64(a))
		c.Halt()
	})
	rt.RunOnAll(fn)
	for q := 0; q < p; q++ {
		a := pmem.Addr(rt.MemRead(slots + pmem.Addr(q*rt.BlockWords())))
		for j := 0; j < 4; j++ {
			if got := rt.MemRead(a + pmem.Addr(j)); got != uint64(q+1) {
				t.Fatalf("proc %d word %d = %d, want %d (allocation overlap across arms)",
					q, j, got, q+1)
			}
		}
	}
	if as := rt.AllocStats(); as.Refills != p || as.Spills != 0 {
		t.Errorf("AllocStats = %+v, want one refill per worker and no spills", as)
	}
}

// TestSegWords pins how an arm's segment is sized from the configuration:
// the cap on large memories, a quarter of the memory split P ways on small
// ones, whole blocks always, and never fewer than four of them.
func TestSegWords(t *testing.T) {
	for _, tc := range []struct {
		name             string
		p, memWords, blk int
		want             int
	}{
		{"capped", 2, 1 << 20, 8, maxSegWords},
		{"quarter-of-memory", 8, 1 << 17, 8, 1 << 12},
		{"rounded-to-blocks", 2, 8 * 1003, 8, 1000},
		{"four-block-floor", 16, 1 << 10, 8, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{P: tc.p, MemWords: tc.memWords, BlockWords: tc.blk}
			if got := segWords(cfg); got != tc.want {
				t.Errorf("segWords(P=%d, MemWords=%d, B=%d) = %d, want %d",
					tc.p, tc.memWords, tc.blk, got, tc.want)
			}
			if rt := New(cfg); rt.segWords != tc.want {
				t.Errorf("runtime segment = %d words, want %d", rt.segWords, tc.want)
			}
		})
	}
}

// TestArmPerWorkerSweep runs an allocation-heavy tree sum at several worker
// counts — one worker, the benchmark-sized four, and more workers than the
// machine has cores — and checks the exact answer and that every worker's
// current segment is a whole segment of the global region that no other
// worker's arm overlaps.
func TestArmPerWorkerSweep(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			// MemWords/(4P) keeps segments small enough that the tree
			// sum's allocations refill the arms more than once.
			rt := New(Config{P: p, MemWords: 1 << 16, Seed: 9})
			defer rt.Close()
			treeSum(t, rt, 1<<13, 8)
			as := rt.AllocStats()
			if as.Refills == 0 || as.HeapWords == 0 {
				t.Fatalf("AllocStats = %+v, want refills and a non-zero heap high-water mark", as)
			}
			seg := int64(rt.segWords)
			var lo []int64
			for _, w := range rt.workers {
				if w.segEnd == 0 {
					continue // this worker never allocated
				}
				start := w.segEnd - seg
				if w.segCur < start || w.segCur > w.segEnd || w.segEnd > as.HeapWords {
					t.Fatalf("worker %d arm [%d, %d) cursor %d outside its segment or the heap (%d)",
						w.id, start, w.segEnd, w.segCur, as.HeapWords)
				}
				for _, s := range lo {
					if start < s+seg && s < w.segEnd {
						t.Fatalf("worker %d segment at %d overlaps another arm's segment at %d", w.id, start, s)
					}
				}
				lo = append(lo, start)
			}
		})
	}
}
