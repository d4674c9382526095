// Package core assembles a machine (persistent + ephemeral memories, fault
// injection), the fault-tolerant work-stealing scheduler of Section 6, and
// the fork-join runtime of Section 4 into one object.
//
// It is internal wiring: the supported entry point for programs is the
// top-level ppm package, which wraps this assembly behind functional
// options, typed capsule contexts, and the Algorithm catalog. New code
// should use ppm.New rather than core.New; core remains the single place
// where the layers are composed, shared by ppm and the internal harnesses.
package core

import (
	"repro/internal/capsule"
	"repro/internal/fault"
	"repro/internal/forkjoin"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stats"
)

// dequeEntries is the scheduler's per-processor deque capacity.
const dequeEntries = 4096

// Config selects the machine and fault model.
type Config struct {
	// P is the number of processors (default 1).
	P int
	// BlockWords is the model's B (default 8).
	BlockWords int
	// EphWords is the model's M per processor (default 4096).
	EphWords int
	// MemWords sizes the persistent memory (default: pools + 1M-word heap).
	MemWords int
	// PoolWords sizes each processor's closure pool (default 1M words).
	PoolWords int
	// FaultRate is the per-access soft-fault probability f (0 = faultless).
	FaultRate float64
	// DieAt schedules hard faults: processor -> persistent-access ordinal.
	DieAt map[int]int64
	// Seed drives all pseudo-randomness (fault draws, victim selection).
	Seed uint64
	// Check enables the write-after-read conflict checker.
	Check bool
	// Injector overrides the fault model assembled from FaultRate/DieAt.
	Injector fault.Injector
}

// Runtime bundles the assembled system.
type Runtime struct {
	Machine *machine.Machine
	Sched   *sched.Scheduler
	FJ      *forkjoin.FJ
}

// New assembles a runtime.
func New(cfg Config) *Runtime {
	if cfg.P <= 0 {
		cfg.P = 1
	}
	inj := cfg.Injector
	if inj == nil {
		var base fault.Injector = fault.NoFaults{}
		if cfg.FaultRate > 0 {
			base = fault.NewIID(cfg.P, cfg.FaultRate, cfg.Seed^0x9e3779b97f4a7c15)
		}
		if len(cfg.DieAt) > 0 {
			base = fault.NewCombined(base, cfg.DieAt)
		}
		inj = base
	}
	m := machine.New(machine.Config{
		P:          cfg.P,
		BlockWords: cfg.BlockWords,
		EphWords:   cfg.EphWords,
		MemWords:   cfg.MemWords,
		PoolWords:  cfg.PoolWords,
		Seed:       cfg.Seed,
		Check:      cfg.Check,
		Injector:   inj,
	})
	s := sched.New(m, dequeEntries)
	return &Runtime{Machine: m, Sched: s, FJ: forkjoin.New(m, s)}
}

// Run executes root (a registered capsule function) as the root thread with
// the given arguments, to completion or until every processor hard-faults.
// It returns true if the computation completed.
func (rt *Runtime) Run(root capsule.FuncID, args ...uint64) bool {
	return rt.FJ.Run(root, args...)
}

// Stats summarizes the cost counters of the last run.
func (rt *Runtime) Stats() stats.Summary { return rt.Machine.Stats.Summarize() }
