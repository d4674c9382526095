// Package warcheck detects write-after-read conflicts within a capsule.
//
// A capsule has a write-after-read conflict if its first access to some
// persistent-memory block is a read (an "exposed" read) and it later writes
// the same block (Section 3 of the paper). Conflict-free capsules are
// idempotent (Theorem 3.1), which is the foundation of every correctness
// result in the system, so the simulator can run with this checker enabled
// to verify that user programs and the scheduler itself satisfy the
// precondition under any fault schedule.
//
// The tracker observes the per-block access sequence of a single capsule
// execution; the machine resets it at every capsule (re)start. The native
// engine threads the same tracker through its capsule boundaries when
// ppm.WithWARCheck is set, so conflicts can be cross-validated on both
// engines. The static counterpart is the warfree analyzer in
// repro/internal/analysis/warfree (run via cmd/ppmvet), which proves the
// absence of the conflicts this tracker can only witness at runtime.
package warcheck

import "fmt"

// Violation describes one write-after-read conflict.
type Violation struct {
	Block   int   // block index in persistent memory
	ReadAt  int64 // access ordinal of the exposed read within the capsule
	WriteAt int64 // access ordinal of the conflicting write
}

func (v Violation) String() string {
	return fmt.Sprintf("write-after-read conflict on block %d (read at access %d, write at access %d)",
		v.Block, v.ReadAt, v.WriteAt)
}

// Tracker watches one processor's capsule execution. It is not safe for
// concurrent use; each virtual processor owns one.
type Tracker struct {
	enabled bool
	// firstAccess maps block -> ordinal of first access; negative means the
	// first access was a read (exposed), non-negative means write.
	exposedRead map[int]int64
	written     map[int]bool
	ordinal     int64
	violations  []Violation
	// Total counts violations across the whole run (not reset per capsule).
	Total int64
}

// New returns a tracker; when enabled is false all methods are cheap no-ops.
func New(enabled bool) *Tracker {
	t := &Tracker{enabled: enabled}
	if enabled {
		t.exposedRead = make(map[int]int64)
		t.written = make(map[int]bool)
	}
	return t
}

// Enabled reports whether the tracker is active.
func (t *Tracker) Enabled() bool { return t.enabled }

// Reset clears per-capsule state. Call at each capsule start and restart.
func (t *Tracker) Reset() {
	if !t.enabled {
		return
	}
	clear(t.exposedRead)
	clear(t.written)
	t.ordinal = 0
	t.violations = t.violations[:0]
}

// OnRead records a read of block b.
func (t *Tracker) OnRead(b int) {
	if !t.enabled {
		return
	}
	ord := t.ordinal
	t.ordinal++
	if t.written[b] {
		return // read after our own write: not exposed
	}
	if _, ok := t.exposedRead[b]; !ok {
		t.exposedRead[b] = ord
	}
}

// OnWrite records a write of block b and reports whether it conflicts with an
// earlier exposed read in this capsule.
func (t *Tracker) OnWrite(b int) bool {
	if !t.enabled {
		return false
	}
	ord := t.ordinal
	t.ordinal++
	if r, ok := t.exposedRead[b]; ok {
		t.violations = append(t.violations, Violation{Block: b, ReadAt: r, WriteAt: ord})
		t.Total++
		return true
	}
	t.written[b] = true
	return false
}

// Violations returns the conflicts recorded since the last Reset. The slice
// is reused; copy it to retain across resets.
func (t *Tracker) Violations() []Violation { return t.violations }
