// Package native is the hardware-speed execution backend of the runtime: a
// real goroutine-per-processor work-stealing fork-join scheduler that runs
// the same continuation-passing programs the model machine interprets, but
// directly on the host CPU.
//
// Where the model machine (internal/machine + internal/sched) is a faithful
// simulator — per-block cost accounting, fault injection, closures living in
// simulated persistent memory — this package is the paper's own experimental
// setup (§7): the algorithms execute natively on a multicore, with capsule
// boundaries optionally compiled in as persistence points so fault-overhead
// experiments can mirror the paper's methodology without paying interpreter
// cost.
//
// The public ppm package selects between the two backends behind its Engine
// option; programs written against ppm.Ctx/ppm.Array run on either unchanged.
package native

import "sync/atomic"

// deque is a Chase–Lev work-stealing deque over a growable circular array
// (the dynamic variant of Chase & Lev, "Dynamic Circular Work-Stealing
// Deque"). The owner pushes and pops at the bottom; thieves pop at the top
// with a CAS. All indices, slots, and the buffer pointer go through
// sync/atomic (sequentially consistent in Go), which keeps the algorithm
// race-detector-clean without locks.
//
// When the ring fills, the owner allocates a buffer of twice the capacity,
// copies the live logical range [top, bottom) across (same logical indices,
// new mask), and publishes it — push never fails. A thief racing a growth
// may read the task pointer from the superseded buffer; that is safe because
// growth never mutates old buffers, logical slots in [top, bottom) hold
// identical pointers in both, the CAS on top still decides ownership
// exactly once, and Go's garbage collector keeps the old buffer alive for
// as long as any thief can reference it (no ABA, no reclamation races).
//
// The tasks themselves are recycled (see task), which is safe for the same
// reason: ownership is decided by the CAS on an index, never by comparing
// pointers, so a pointer read from a slot whose task has since run and been
// reused is discarded by the failed CAS without being dereferenced.
type deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[dequeBuf]

	// The workers' headers are allocated back to back. At 24 bytes, two or
	// three shared a cache line, which one worker's pushes and pops then
	// contended for with its neighbours' owners and thieves. Padded to one
	// line, a header is an allocation of its own 64-byte size class, which is
	// line-aligned.
	_ [64 - 24]byte
}

// dequeBuf is one immutable-capacity ring: capacity a power of two, slot
// for logical index i at slots[i&mask].
type dequeBuf struct {
	slots []atomic.Pointer[task]
	mask  int64
}

func newDequeBuf(capacity int64) *dequeBuf {
	return &dequeBuf{slots: make([]atomic.Pointer[task], capacity), mask: capacity - 1}
}

// dequeCap is a worker deque's initial ring capacity; the ring grows by
// doubling whenever spawn depth exceeds it.
const dequeCap = 1 << 13

// stealBatch caps how many tasks one steal grabs from a victim's deque.
const stealBatch = 8

func newDeque(capacity int) *deque {
	// Round up to a power of two for mask indexing.
	c := int64(1)
	for c < int64(capacity) {
		c <<= 1
	}
	d := &deque{}
	d.buf.Store(newDequeBuf(c))
	return d
}

// push appends t at the bottom (owner only), growing the ring when it is
// full — the caller never has to spill work elsewhere.
func (d *deque) push(t *task) {
	b := d.bottom.Load()
	top := d.top.Load()
	buf := d.buf.Load()
	if b-top >= int64(len(buf.slots)) {
		buf = d.grow(buf, top, b)
	}
	buf.slots[b&buf.mask].Store(t)
	d.bottom.Store(b + 1)
}

// grow publishes a double-capacity buffer holding the logical range
// [top, b) at unchanged logical indices (owner only).
func (d *deque) grow(old *dequeBuf, top, b int64) *dequeBuf {
	next := newDequeBuf(2 * int64(len(old.slots)))
	for i := top; i < b; i++ {
		next.slots[i&next.mask].Store(old.slots[i&old.mask].Load())
	}
	d.buf.Store(next)
	return next
}

// popBottom removes and returns the most recently pushed task (owner only),
// or nil when the deque is empty. The single-entry race against thieves is
// resolved by CAS on top, exactly as in Chase–Lev.
func (d *deque) popBottom() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: undo the reservation.
		d.bottom.Store(t)
		return nil
	}
	buf := d.buf.Load()
	tk := buf.slots[b&buf.mask].Load()
	if b > t {
		return tk
	}
	// Last entry: race thieves for it.
	if !d.top.CompareAndSwap(t, t+1) {
		tk = nil // a thief won
	}
	d.bottom.Store(t + 1)
	return tk
}

// popTop steals the oldest task (any goroutine), or returns nil when the
// deque looks empty or the CAS loses a race. Callers treat nil as "try
// elsewhere"; there is no retry loop here so steal attempts stay cheap. The
// slot is read before the CAS: once top moves past it the owner may recycle
// it, but a pointer read from a superseded buffer stays valid (see type
// comment).
func (d *deque) popTop() *task {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	buf := d.buf.Load()
	tk := buf.slots[t&buf.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return tk
}

// stealHalf steals up to half the deque's resident tasks (capped at max) in
// one coordinated grab: the first stolen task is returned for immediate
// execution and the remaining ones are pushed onto dst, the thief's own
// deque, so a burst of fine-grained work migrates once instead of paying one
// cross-worker steal per task.
//
// The grab is a sequence of per-entry CASes on top, not a single CAS of
// top -> top+k. A range claim by one CAS would be unsound against Chase–Lev's
// owner: popBottom plain-takes any index strictly above the top value it
// read, so while a thief's CAS(t -> t+k) is in flight the owner can take
// indices t+k-1 .. t+1 without ever touching top, and a k >= 2 claim that
// then lands would re-deliver them. Claiming one entry at a time keeps every
// step a classic popTop — the CAS succeeds only while top is exactly the
// claimed index, so the owner race is resolved per entry, exactly once.
//
// Two loads are hoisted out of the loop. The buffer pointer: growth never
// mutates a superseded buffer and the owner recycles a slot only once its
// logical index has dropped below top, so a slot read for index i while
// top == i is valid in any buffer snapshot — and if top moved past i before
// the read, the CAS on i fails and the value is discarded (the popTop
// argument, per entry). The initial top/bottom pair: top is loaded before
// bottom, as in popTop; every later iteration re-checks a fresh bottom
// *after* its predecessor's CAS published the new top, which preserves the
// load ordering the owner's store-bottom-then-read-top protocol pairs with.
// Skipping that re-check would let a thief holding a stale bottom claim an
// index the owner already plain-took.
func (d *deque) stealHalf(dst *deque, max int) (*task, int) {
	t := d.top.Load()
	b := d.bottom.Load()
	avail := b - t
	if avail <= 0 {
		return nil, 0
	}
	want := (avail + 1) / 2
	if max < 1 {
		max = 1
	}
	if want > int64(max) {
		want = int64(max)
	}
	buf := d.buf.Load()
	var first *task
	var n int64
	for n < want {
		if n > 0 && t+n >= d.bottom.Load() {
			break
		}
		tk := buf.slots[(t+n)&buf.mask].Load()
		if !d.top.CompareAndSwap(t+n, t+n+1) {
			break
		}
		if first == nil {
			first = tk
		} else {
			dst.push(tk)
		}
		n++
	}
	return first, int(n)
}

// size reports a racy estimate of resident entries. A parking worker's
// re-check reads it (see park): both loads are atomic, so a push ordered
// before the re-check shows as nonzero unless a thief already took it.
func (d *deque) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}

// capacity reports the current ring size (monitoring and tests).
func (d *deque) capacity() int64 { return int64(len(d.buf.Load().slots)) }
