package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// TestHardFaultSweep is the executable analogue of Appendix A's case
// analysis: kill processor 0 at every possible persistent-access ordinal in
// turn — hitting every capsule of the user code, the fork path, the join
// path, clearBottom, findWork, and the steal chain — and require that the
// survivors always finish with the exact result. Any window where a dead
// processor's in-progress work can be lost or duplicated shows up as a wrong
// sum or a hang.
func TestHardFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	// First measure how many accesses proc 0 makes in a clean run, to know
	// the sweep range.
	probe := newFanout(machine.Config{P: 2, Seed: 42}, 12)
	probe.run(t)
	maxAcc := probe.m.Stats.Procs[0].ExtReads.Load() + probe.m.Stats.Procs[0].ExtWrites.Load()
	if maxAcc > 400 {
		maxAcc = 400
	}

	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for k := int64(0); k < maxAcc; k += step {
		k := k
		t.Run(fmt.Sprintf("die@%d", k), func(t *testing.T) {
			inj := fault.NewScript().Add(0, k, fault.Hard)
			fo := newFanout(machine.Config{P: 2, Seed: 42, Check: true, Injector: inj}, 12)
			fo.run(t) // asserts completion and per-leaf results
			// Whether the death fires depends on proc 0 reaching fault
			// point k before the run ends; completion with exact results
			// is the property under test either way.
			if v := fo.m.WARViolations(); len(v) != 0 {
				t.Errorf("WAR violations: %v", v)
			}
		})
	}
}

// TestSoftFaultSweep: inject a single soft fault at every access ordinal of
// proc 0 — every capsule must replay invisibly.
func TestSoftFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	probe := newFanout(machine.Config{P: 2, Seed: 43}, 10)
	probe.run(t)
	maxAcc := probe.m.Stats.Procs[0].ExtReads.Load() + probe.m.Stats.Procs[0].ExtWrites.Load()
	if maxAcc > 300 {
		maxAcc = 300
	}
	for k := int64(0); k < maxAcc; k += 3 {
		k := k
		t.Run(fmt.Sprintf("fault@%d", k), func(t *testing.T) {
			inj := fault.NewScript().Add(0, k, fault.Soft)
			fo := newFanout(machine.Config{P: 2, Seed: 43, Check: true, Injector: inj}, 10)
			fo.run(t)
		})
	}
}

// victimsFirst hard-faults each victim once, at its ordinal, as a Script's
// Hard entries would, and makes those deaths fire on a host with fewer cores
// than processors. Processors are goroutines, so a victim the Go
// scheduler has not run yet may reach none of its fault points before the
// survivors finish. Until every victim has reached its ordinal, a survivor
// sleeps briefly at each of its fault points. Which accesses fault is
// unchanged.
type victimsFirst struct {
	dieAt map[int]int64
	mu    sync.Mutex
	count map[int]int64
	fired int
}

func newVictimsFirst(dieAt map[int]int64) *victimsFirst {
	return &victimsFirst{dieAt: dieAt, count: map[int]int64{}}
}

func (v *victimsFirst) At(proc int) fault.Kind {
	v.mu.Lock()
	n := v.count[proc]
	v.count[proc] = n + 1
	die, victim := v.dieAt[proc]
	hit := victim && n == die
	if hit {
		v.fired++
	}
	wait := !victim && v.fired < len(v.dieAt)
	v.mu.Unlock()
	if wait {
		time.Sleep(50 * time.Microsecond)
	}
	if hit {
		return fault.Hard
	}
	return fault.None
}

// TestDoubleHardFault: both processors of the pair holding work die at
// overlapping points; a third must pick up both chains transitively.
func TestDoubleHardFault(t *testing.T) {
	for _, k := range []int64{10, 30, 60, 90, 130} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			inj := newVictimsFirst(map[int]int64{0: k, 1: k + 5})
			fo := newFanout(machine.Config{P: 4, Seed: 44, Check: true, Injector: inj}, 16)
			fo.run(t)
			s := fo.m.Stats.Summarize()
			if s.Dead != 2 {
				t.Errorf("dead = %d, want 2", s.Dead)
			}
		})
	}
}
