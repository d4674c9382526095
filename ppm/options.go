package ppm

import (
	"fmt"

	"repro/internal/fault"
)

// Option configures a Runtime at construction.
type Option func(*config)

type scriptedFault struct {
	proc int
	at   int64
	kind fault.Kind
}

type config struct {
	engine        Engine
	procs         int
	ephWords      int
	memWords      int
	poolWords     int
	faultRate     float64
	seed          uint64
	warCheck      bool
	nativePersist bool
	nativeDurable string
	scripted      []scriptedFault // WithHardFault and WithSoftFaultAt, in order
}

func defaultConfig() config {
	return config{engine: EngineModel, procs: 1}
}

// WithEngine selects the execution backend: EngineModel (the faithful
// simulator, the default) or EngineNative (the goroutine work-stealing
// hardware runtime). Soft faults exist on both engines: the model simulates
// them with full cost accounting, while the native engine emulates them by
// aborting and replaying capsules at hardware speed (WithFaultRate).
// Deterministic and hard-fault placement (WithHardFault, WithSoftFaultAt)
// are model-engine features — the native takeover protocol for dead
// processors is simulated only — and WithNativePersist/WithNativeDurable are
// native-engine features. New panics, and Recover returns, with
// ErrUnsupportedOption when an option meets the engine that cannot honour
// it. The dynamic WAR checker (WithWARCheck) runs on both engines.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithNativePersist makes the native engine commit a persistence point at
// every capsule boundary — a committed write of the worker's capsule
// counter to a dedicated epoch word — so the overhead of capsule-boundary
// persistence can be measured at hardware speed (the §7 methodology).
// Native engine only: the model's capsule installs persist by construction,
// so New refuses it there with ErrUnsupportedOption.
func WithNativePersist() Option { return func(c *config) { c.nativePersist = true } }

// WithNativeDurable backs the native engine's word memory with an mmap'd
// region file at path (created fresh, truncating any previous file) and
// implies WithNativePersist: the workers' epoch words live in the file, so
// a persistence point is still the paper's one persistent write, one store
// and no syscall, and run starts, root-chain phase commits, run completion,
// and Close are MS_SYNC barriers. What that guarantees: after kill -9, every
// completed store is in the file (the mapping is MAP_SHARED); after a power
// cut, the file holds at least everything before the last barrier that
// returned, and the committed phase index never runs ahead of it. A barrier
// that fails commits nothing and surfaces as ErrDurableSync. A process
// killed mid-run leaves a file that ppm.Recover reopens; Runtime.Resume then
// re-executes the un-committed tail: a root Seq chain from its first
// uncommitted phase, a fork-tree root (merge sort) from the recorded root.
// That is sound for WAR-free programs (Theorem 3.1, enforced statically by
// ppmvet's warfree analyzer). Native engine only: the model simulates
// persistence by construction, so New refuses it there with
// ErrUnsupportedOption.
func WithNativeDurable(path string) Option {
	return func(c *config) { c.nativeDurable = path }
}

// WithProcs sets the number of virtual processors P (default 1).
func WithProcs(p int) Option { return func(c *config) { c.procs = p } }

// WithEphWords sets the per-processor ephemeral memory size M in words
// (default 4096). Ephemeral state is free to access and lost on faults.
// It sizes the model's simulated memory; the native engine, whose ephemeral
// state is a capsule's Go locals, ignores it.
func WithEphWords(m int) Option { return func(c *config) { c.ephWords = m } }

// WithMemWords sizes the persistent memory (default: pools plus a one
// million word heap).
func WithMemWords(n int) Option { return func(c *config) { c.memWords = n } }

// WithPoolWords sizes each processor's closure pool (default one million
// words). The native engine keeps closures on the Go heap and ignores it.
func WithPoolWords(n int) Option { return func(c *config) { c.poolWords = n } }

// WithFaultRate sets the per-persistent-access soft-fault probability f.
// A soft fault erases the processor's registers and ephemeral memory; the
// runtime replays the active capsule. The model requires f < 1/(2C) for the
// largest capsule work C, or the computation diverges.
//
// On the native engine this drives replay-based emulation: each tracked
// memory access aborts the running capsule with probability f and the
// scheduler re-runs it from its start at hardware speed (ephemeral state is
// the body's locals, which the abort discards), so the same f < 1/(2C)
// precondition applies natively, with C counted in tracked word accesses.
// Stats().SoftFaults/Restarts report the injected faults and replays on both
// engines, and Stats().MaxCapsWork the largest capsule work C.
func WithFaultRate(f float64) Option { return func(c *config) { c.faultRate = f } }

// WithHardFault schedules processor proc to fail permanently at its at-th
// persistent access (0-based). Repeat for several processors; the
// scheduler's takeover protocol keeps the computation exactly-once as long
// as one processor survives. Model engine only.
func WithHardFault(proc int, at int64) Option {
	return func(c *config) {
		c.scripted = append(c.scripted, scriptedFault{proc: proc, at: at, kind: fault.Hard})
	}
}

// WithSoftFaultAt injects one soft fault at processor proc's at-th
// persistent access (0-based) — deterministic fault placement for tests and
// demonstrations, composable with WithFaultRate. Of a WithSoftFaultAt and a
// WithHardFault at the same processor and access, the later option holds.
// Model engine only.
func WithSoftFaultAt(proc int, at int64) Option {
	return func(c *config) {
		c.scripted = append(c.scripted, scriptedFault{proc: proc, at: at, kind: fault.Soft})
	}
}

// WithSeed seeds all pseudo-randomness: fault draws and steal-victim
// selection (default 0).
func WithSeed(s uint64) Option { return func(c *config) { c.seed = s } }

// WithWARCheck enables the write-after-read conflict checker, which flags
// capsules whose replay would not be idempotent (Theorem 3.1). Violations
// are reported by Runtime.WARViolations on both engines, in the same
// format. The model checks the capsules it simulates; the native engine
// threads the same block-granular tracker through its capsule boundaries
// (its allocations are block-aligned, so block indices agree with the
// model's), a debug cost on every memory operation. The warfree analyzer in
// cmd/ppmvet is the compile-time counterpart.
func WithWARCheck() Option { return func(c *config) { c.warCheck = true } }

// unsupported names the first option the selected engine cannot honour,
// wrapped in ErrUnsupportedOption, or returns nil.
func (c *config) unsupported() error {
	opt := ""
	if c.engine == EngineNative {
		if len(c.scripted) > 0 {
			opt = "WithSoftFaultAt"
			if c.scripted[0].kind == fault.Hard {
				opt = "WithHardFault"
			}
		}
	} else if c.nativePersist {
		opt = "WithNativePersist"
	} else if c.nativeDurable != "" {
		opt = "WithNativeDurable"
	}
	if opt == "" {
		return nil
	}
	return fmt.Errorf("%w: %s on the %s engine", ErrUnsupportedOption, opt, c.engine)
}

// buildInjector assembles the model's fault model: one Script of the hard
// and scripted soft faults in front of IID soft faults at faultRate.
func (c *config) buildInjector() fault.Injector {
	var iid fault.Injector = fault.NoFaults{}
	if c.faultRate > 0 {
		iid = fault.NewIID(c.procs, c.faultRate, c.seed^0x9e3779b97f4a7c15)
	}
	if len(c.scripted) == 0 {
		return iid
	}
	s := fault.NewScript()
	for _, f := range c.scripted {
		s.Add(f.proc, f.at, f.kind)
	}
	return fault.First{s, iid}
}
