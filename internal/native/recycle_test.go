package native

import (
	"runtime"
	"testing"

	"repro/internal/capsule"
	"repro/internal/pmem"
)

// TestRecyclingUnderSteals runs 200 fork-tree sums on P=4 workers sharing
// GOMAXPROCS=2, each internal node a Fork whose join call adds its children's
// partial sums. Thieves execute and free tasks and joins their victims took
// off their own lists, so every object keeps changing hands. An exact sum on
// every run, each run over different input, shows no recycled task ran twice
// or with stale words and no recycled join lost or doubled a completion; and
// however the objects migrated, no free list may outgrow its cap.
func TestRecyclingUnderSteals(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		n    = 1 << 12
		leaf = 16
		runs = 200
	)
	rt := New(Config{P: 4, MemWords: 1 << 18, Seed: 11})
	defer rt.Close()
	b := pmem.Addr(rt.BlockWords())
	in := rt.HeapAllocBlocks(n)
	sums := rt.HeapAllocBlocks(2 * n / leaf * rt.BlockWords()) // heap-numbered nodes, one block each

	cmb := rt.Register("combine", func(c *Ctx) {
		node := pmem.Addr(c.Arg(0))
		c.Write(sums+node*b, c.Read(sums+2*node*b)+c.Read(sums+(2*node+1)*b))
		c.Done()
	})
	var sum capsule.FuncID
	sum = rt.Register("sum", func(c *Ctx) {
		if c.NArgs() != 3 {
			panic("sum: wrong argument count")
		}
		node, lo, hi := c.Arg(0), int(c.Arg(1)), int(c.Arg(2))
		if hi-lo <= leaf {
			var acc uint64
			for _, v := range c.Slice(in, lo, hi) {
				acc += v
			}
			c.Write(sums+pmem.Addr(node)*b, acc)
			c.Done()
			return
		}
		mid := uint64(lo+hi) / 2
		c.Fork(
			sum, capsule.ArgsOf(2*node, uint64(lo), mid),
			sum, capsule.ArgsOf(2*node+1, mid, uint64(hi)),
			cmb, capsule.ArgsOf(node), true)
	})

	vals := make([]uint64, n)
	for r := 0; r < runs; r++ {
		var want uint64
		for i := range vals {
			vals[i] = uint64(i%97 + r + 1)
			want += vals[i]
		}
		rt.MemWriteRange(in, vals)
		if !rt.Run(sum, 1, 0, n) {
			t.Fatalf("run %d did not complete", r)
		}
		if got := rt.MemRead(sums + b); got != want {
			t.Fatalf("run %d: sum = %d, want %d", r, got, want)
		}
	}
	if rt.SchedStats().Steals == 0 {
		t.Fatal("no steals: the runs never moved a task between workers")
	}
	pooled := 0
	for _, w := range rt.workers {
		if len(w.freeTasks) > freeListCap || len(w.freeJoins) > freeListCap {
			t.Fatalf("worker %d free lists hold %d tasks and %d joins, cap %d",
				w.id, len(w.freeTasks), len(w.freeJoins), freeListCap)
		}
		pooled += len(w.freeTasks) + len(w.freeJoins)
	}
	if pooled == 0 {
		t.Fatal("free lists empty after 200 runs: nothing was recycled")
	}
}
