package forkjoin

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// TestJoinFaultOrdinalSweep injects one soft fault at every access ordinal
// of each processor in turn, across a fork-join computation with real joins;
// the CAM-based last-arriver protocol must produce the exact sum each time.
// The window of ordinals is fixed rather than probed from one run: how many
// accesses each processor makes depends on the steal schedule, so a probed
// bound would change the set of cases from run to run. An ordinal past a
// processor's last access in some schedule leaves that run fault-free, and
// it must still produce the exact sum.
func TestJoinFaultOrdinalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	const window = 250
	for proc := 0; proc < 2; proc++ {
		for k := int64(0); k < window; k += 2 {
			proc, k := proc, k
			t.Run(fmt.Sprintf("p%d@%d", proc, k), func(t *testing.T) {
				inj := fault.NewScript().Add(proc, k, fault.Soft)
				ts := newTreeSum(machine.Config{P: 2, Seed: 21, Check: true, Injector: inj}, 64, 8)
				if got := ts.run(t); got != ts.expected() {
					t.Fatalf("sum = %d, want %d (fault on proc %d at access %d)",
						got, ts.expected(), proc, k)
				}
				if v := ts.m.WARViolations(); len(v) != 0 {
					t.Errorf("WAR violations: %v", v)
				}
			})
		}
	}
}

// TestHardFaultAtJoinWindow kills a processor at each ordinal in a band that
// covers join CAMs and checks (the trickiest exactly-once window: the
// last-arriver decision).
func TestHardFaultAtJoinWindow(t *testing.T) {
	for k := int64(20); k < 160; k += 4 {
		k := k
		t.Run(fmt.Sprintf("die@%d", k), func(t *testing.T) {
			inj := fault.NewScript().Add(1, k, fault.Hard)
			ts := newTreeSum(machine.Config{P: 3, Seed: 22, Check: true, Injector: inj}, 96, 8)
			if got := ts.run(t); got != ts.expected() {
				t.Fatalf("sum = %d, want %d", got, ts.expected())
			}
			ts.checkClean(t)
		})
	}
}
