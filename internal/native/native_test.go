package native

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/capsule"
	"repro/internal/pmem"
)

// TestTreeSum runs the canonical fork-join tree sum on 8 workers and checks
// the exact answer — the native analogue of the model's quickstart.
func TestTreeSum(t *testing.T) {
	const (
		n    = 1 << 15
		leaf = 64
	)
	rt := New(Config{P: 8, MemWords: 1 << 20, Seed: 3})
	in := rt.HeapAllocBlocks(n)
	out := rt.HeapAllocBlocks(1)
	var want uint64
	for i := 0; i < n; i++ {
		rt.MemWrite(in+pmem.Addr(i), uint64(i%91+1))
		want += uint64(i%91 + 1)
	}

	cmb := rt.Register("combine", func(c *Ctx) {
		l := c.Read(pmem.Addr(c.Arg(0)))
		r := c.Read(pmem.Addr(c.Arg(1)))
		c.Write(pmem.Addr(c.Arg(2)), l+r)
		c.Done()
	})
	var sum capsule.FuncID
	sum = rt.Register("sum", func(c *Ctx) {
		lo, hi, dst := int(c.Arg(0)), int(c.Arg(1)), pmem.Addr(c.Arg(2))
		if hi-lo <= leaf {
			var acc uint64
			for _, v := range c.Slice(in, lo, hi) {
				acc += v
			}
			c.Write(dst, acc)
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		s := c.Alloc(2)
		c.Fork(
			sum, capsule.ArgsOf(uint64(lo), uint64(mid), uint64(s)),
			sum, capsule.ArgsOf(uint64(mid), uint64(hi), uint64(s+1)),
			cmb, capsule.ArgsOf(uint64(s), uint64(s+1), uint64(dst)), true)
	})

	if !rt.Run(sum, 0, n, uint64(out)) {
		t.Fatal("run did not complete")
	}
	if got := rt.MemRead(out); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	s := rt.Stats()
	if s.Capsules == 0 || s.Work == 0 {
		t.Errorf("expected non-zero counters, got %+v", s)
	}
}

// TestParallelForSeq drives ParallelFor through a Seq chain: square every
// element, then (strictly after) add one to every element.
func TestParallelForSeq(t *testing.T) {
	const n = 10_000
	rt := New(Config{P: 4, MemWords: 1 << 18, Seed: 9})
	arr := rt.HeapAllocBlocks(n)
	sq := rt.Register("sq", func(c *Ctx) {
		lo, hi := int(c.Arg(0)), int(c.Arg(1))
		for i := lo; i < hi; i++ {
			v := c.Read(arr + pmem.Addr(i))
			c.Write(arr+pmem.Addr(i), v*v)
		}
		c.Done()
	})
	inc := rt.Register("inc", func(c *Ctx) {
		lo, hi := int(c.Arg(0)), int(c.Arg(1))
		for i := lo; i < hi; i++ {
			c.Write(arr+pmem.Addr(i), c.Read(arr+pmem.Addr(i))+1)
		}
		c.Done()
	})
	p1 := rt.Register("p1", func(c *Ctx) { c.ParallelFor(sq, 0, n, 32, 0, 0) })
	p2 := rt.Register("p2", func(c *Ctx) { c.ParallelFor(inc, 0, n, 32, 0, 0) })
	root := rt.Register("root", func(c *Ctx) {
		c.Seq([]capsule.FuncID{p1, p2}, []capsule.Args{{}, {}})
	})
	for i := 0; i < n; i++ {
		rt.MemWrite(arr+pmem.Addr(i), uint64(i%100))
	}
	if !rt.Run(root) {
		t.Fatal("run did not complete")
	}
	for i := 0; i < n; i++ {
		want := uint64(i%100)*uint64(i%100) + 1
		if got := rt.MemRead(arr + pmem.Addr(i)); got != want {
			t.Fatalf("arr[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestRunOnAllCAM races every worker's CAM claim on one word: exactly one
// winner, decided by a later read — the Figure 2 protocol, natively.
func TestRunOnAllCAM(t *testing.T) {
	const p = 8
	rt := New(Config{P: p, MemWords: 1 << 16, Seed: 1})
	owner := rt.HeapAllocBlocks(1)
	slots := rt.HeapAllocBlocks(p * rt.BlockWords())
	check := rt.Register("check", func(c *Ctx) {
		won := uint64(1)
		if c.Read(owner) == uint64(c.ProcID())+1 {
			won = 2
		}
		c.Write(slots+pmem.Addr(c.ProcID()*rt.BlockWords()), won)
		c.Halt()
	})
	claim := rt.Register("claim", func(c *Ctx) {
		c.CAM(owner, 0, uint64(c.ProcID())+1)
		c.Then(check, capsule.Args{})
	})
	rt.RunOnAll(claim)
	winners := 0
	for q := 0; q < p; q++ {
		if rt.MemRead(slots+pmem.Addr(q*rt.BlockWords())) == 2 {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
}

// TestPersistPoints checks that Persist mode commits one epoch write per
// capsule boundary.
func TestPersistPoints(t *testing.T) {
	rt := New(Config{P: 2, MemWords: 1 << 16, Persist: true})
	body := rt.Register("body", func(c *Ctx) { c.Done() })
	root := rt.Register("root", func(c *Ctx) { c.ParallelFor(body, 0, 64, 1, 0, 0) })
	if !rt.Run(root) {
		t.Fatal("run did not complete")
	}
	if pp := rt.PersistPoints(); pp == 0 {
		t.Fatal("expected persistence points to be recorded")
	}
	if s := rt.Stats(); s.Capsules != rt.PersistPoints() {
		t.Errorf("persist points %d != capsules %d", rt.PersistPoints(), s.Capsules)
	}
}

// TestDequeLIFOFIFO checks owner LIFO order and thief FIFO order.
func TestDequeLIFOFIFO(t *testing.T) {
	d := newDeque(8)
	ts := make([]*task, 6)
	for i := range ts {
		ts[i] = &task{args: []uint64{uint64(i)}}
		d.push(ts[i])
	}
	if got := d.popTop(); got != ts[0] {
		t.Fatalf("popTop = %v, want task 0", got.args)
	}
	if got := d.popBottom(); got != ts[5] {
		t.Fatalf("popBottom = %v, want task 5", got.args)
	}
}

// TestDequeGrowth is the regression test for the old mutex-overflow spill
// path: pushing past the ring capacity used to fail (and spill to a locked
// queue); the growable-buffer variant must instead double the ring, keep
// every task, and preserve LIFO/FIFO order across the growth boundary.
func TestDequeGrowth(t *testing.T) {
	const total = 100
	d := newDeque(8)
	ts := make([]*task, total)
	for i := range ts {
		ts[i] = &task{args: []uint64{uint64(i)}}
		d.push(ts[i])
	}
	if d.size() != total {
		t.Fatalf("size = %d, want %d", d.size(), total)
	}
	if c := d.capacity(); c < total {
		t.Fatalf("capacity = %d, want >= %d after growth", c, total)
	}
	// Steal the two oldest (FIFO), pop the rest newest-first (LIFO).
	if got := d.popTop(); got != ts[0] {
		t.Fatalf("popTop = %v, want task 0", got.args)
	}
	if got := d.popTop(); got != ts[1] {
		t.Fatalf("popTop = %v, want task 1", got.args)
	}
	for i := total - 1; i >= 2; i-- {
		got := d.popBottom()
		if got != ts[i] {
			t.Fatalf("popBottom = %v, want task %d", got, i)
		}
	}
	if d.popBottom() != nil || d.size() != 0 {
		t.Fatal("deque should be empty")
	}
}

// TestDequeGrowthUnderTheft grows the ring while thieves are actively
// stealing and checks exactly-once delivery: every task is obtained by
// exactly one side. Run under -race this validates that a thief holding a
// superseded buffer still resolves its steal correctly.
func TestDequeGrowthUnderTheft(t *testing.T) {
	const total = 50_000
	d := newDeque(8) // tiny initial ring: forces many growths mid-theft
	var stolen atomic.Int64
	var wg sync.WaitGroup
	stop := atomic.Bool{}
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if tk := d.popTop(); tk != nil {
					stolen.Add(1)
				}
			}
		}()
	}
	popped := 0
	for i := 0; i < total; i++ {
		d.push(&task{})
		// Interleave occasional owner pops so bottom moves both ways.
		if i%17 == 0 {
			if tk := d.popBottom(); tk != nil {
				popped++
			}
		}
	}
	for {
		tk := d.popBottom()
		if tk == nil && d.size() == 0 {
			break
		}
		if tk != nil {
			popped++
		}
	}
	stop.Store(true)
	wg.Wait()
	for tk := d.popTop(); tk != nil; tk = d.popTop() {
		stolen.Add(1)
	}
	if got := stolen.Load() + int64(popped); got != total {
		t.Fatalf("delivered %d of %d tasks", got, total)
	}
}

// TestDequeStealStress hammers one owner against many thieves and checks
// every task is executed exactly once. Run under -race this also validates
// the memory publication protocol.
func TestDequeStealStress(t *testing.T) {
	const total = 200_000
	d := newDeque(1 << 12)
	var executed atomic.Int64
	var wg sync.WaitGroup
	stop := atomic.Bool{}
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if tk := d.popTop(); tk != nil {
					executed.Add(1)
				}
			}
		}()
	}
	for pushed := 0; pushed < total; pushed++ {
		d.push(&task{})
	}
	for {
		tk := d.popBottom()
		if tk == nil && d.size() == 0 {
			break
		}
		if tk != nil {
			executed.Add(1)
		}
	}
	stop.Store(true)
	wg.Wait()
	// Drain anything a thief reserved but the loop above missed.
	for tk := d.popTop(); tk != nil; tk = d.popTop() {
		executed.Add(1)
	}
	if executed.Load() != total {
		t.Fatalf("executed %d of %d tasks", executed.Load(), total)
	}
}
