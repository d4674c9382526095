package native

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// TestShardAllocStorm hammers the sharded allocator from every worker at
// once — thousands of small, odd-sized allocations racing across shards and
// forcing many segment refills — and then proves no word was handed out
// twice: each allocation stamps every word it owns with its task index, so
// any cross-shard double-allocation leaves one loser whose stamp was
// overwritten. Run under -race this also validates the refill publication
// protocol.
func TestShardAllocStorm(t *testing.T) {
	const (
		p     = 8
		tasks = 4096
	)
	// A deliberately tiny segment size forces refills on every shard.
	rt := New(Config{P: p, MemWords: 1 << 21, Seed: 7, SegWords: 1 << 10})
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
				t.Fatalf("allocation %d word %d = %d, want %d (double allocation across shards)",
					i, j, got, i+1)
			}
		}
	}
	as := rt.AllocStats()
	if as.Shards < p {
		t.Errorf("Shards = %d, want >= %d (every worker gets a private arm by default)", as.Shards, p)
	}
	if as.Refills == 0 {
		t.Error("expected segment refills under an allocation storm")
	}
	if as.HeapWords == 0 {
		t.Error("expected a non-zero heap high-water mark")
	}
}

// TestShardAllocAligned checks the shard fast path preserves the model
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

// TestShardAllocSpill checks that allocations too large for a shard segment
// take the spill path straight to the global region and are counted.
func TestShardAllocSpill(t *testing.T) {
	rt := New(Config{P: 2, MemWords: 1 << 18, SegWords: 256})
	fn := rt.Register("big", func(c *Ctx) {
		a := c.Alloc(1000) // > SegWords/2: must spill
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

// TestShardAllocExhaustionPanic drains a tiny memory through the shard
// path — segment refills, then the spill fallback once a whole segment no
// longer fits — and checks the canonical "raise MemWords" panic still fires
// deterministically at true exhaustion. Harness-side shardAlloc calls keep
// the panic on this goroutine so it is recoverable.
func TestShardAllocExhaustionPanic(t *testing.T) {
	rt := New(Config{P: 1, MemWords: 1 << 10, SegWords: 256})
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
		rt.shardAlloc(0, 64)
	}
}

// TestShardAllocSpillFallbackUsesTail checks the refill fallback: when the
// global region can no longer host a whole segment, a small allocation must
// still succeed out of the remaining tail (counted as a spill) instead of
// failing early.
func TestShardAllocSpillFallbackUsesTail(t *testing.T) {
	const memWords = 1 << 10
	rt := New(Config{P: 1, MemWords: memWords, SegWords: 512})
	// Leave less than a segment free: one refill takes 512 of the ~1016
	// usable words, a second refill cannot fit.
	rt.shardAlloc(0, 8) // triggers the first (and only possible) refill
	for i := 0; i < memWords/8; i++ {
		got := false
		func() {
			defer func() { got = recover() == nil }()
			rt.shardAlloc(0, 8)
		}()
		if !got {
			// Exhausted — every usable word was handed out first.
			as := rt.AllocStats()
			if as.Spills == 0 {
				t.Fatalf("exhausted without ever spilling into the tail, stats %+v", as)
			}
			if as.Refills != 1 {
				t.Fatalf("Refills = %d, want exactly 1 in a one-segment memory", as.Refills)
			}
			return
		}
	}
	t.Fatal("allocator never exhausted a one-segment memory")
}

// TestRunOnAllShardAlloc races every worker's first allocation on shared
// shards (more workers than shards) and checks disjointness — the shared-arm
// CAS path that single-owner shards never exercise.
func TestRunOnAllShardAlloc(t *testing.T) {
	const p = 8
	rt := New(Config{P: p, MemWords: 1 << 18, Shards: 2, SegWords: 512})
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
				t.Fatalf("proc %d word %d = %d, want %d (allocation overlap on shared shard)",
					q, j, got, q+1)
			}
		}
	}
	if as := rt.AllocStats(); as.Shards != 2 {
		t.Errorf("Shards = %d, want 2", as.Shards)
	}
}

// TestShardCountSweep runs an allocation-heavy tree sum on four workers
// under explicit shard counts — one shard (a single global arm), one per
// worker, and more shards than workers — and checks the exact answer and
// that the allocator reports the configured count.
func TestShardCountSweep(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt := New(Config{P: 4, MemWords: 1 << 20, Seed: 9, Shards: shards})
			defer rt.Close()
			treeSum(t, rt, 1<<12, 64)
			as := rt.AllocStats()
			if as.Shards != shards {
				t.Errorf("AllocStats.Shards = %d, want %d", as.Shards, shards)
			}
			if as.HeapWords == 0 {
				t.Error("expected a non-zero heap high-water mark")
			}
		})
	}
}
