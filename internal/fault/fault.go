// Package fault implements the Parallel-PM fault model: each processor may
// soft-fault (losing registers and ephemeral memory, then restarting its
// active capsule) between any two persistent-memory accesses with probability
// at most f, independently; a processor may also hard-fault, never restarting.
//
// The package supplies pluggable injectors so experiments can run the same
// computation faultlessly (to measure W and D), under i.i.d. soft faults with
// a given f (to measure Wf and Tf), or under a Script that soft- or
// hard-faults a processor at its k-th access (to place a death or reach a
// specific interleaving); First composes them.
package fault

import (
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Kind distinguishes the two failure classes of the model.
type Kind int

const (
	// None means no fault fires at this point.
	None Kind = iota
	// Soft means the processor loses its volatile state and restarts the
	// active capsule.
	Soft
	// Hard means the processor dies and never restarts.
	Hard
)

// Injector decides, at each fault point (immediately before each
// persistent-memory access), whether the given processor faults.
// Implementations must be safe for concurrent use by distinct proc IDs;
// a single proc ID is only ever queried from one goroutine at a time.
type Injector interface {
	At(proc int) Kind
}

// NoFaults is the faultless injector used to measure W, D and T.
type NoFaults struct{}

// At always reports no fault.
func (NoFaults) At(int) Kind { return None }

// IID injects independent soft faults with probability F at every fault
// point, matching the paper's analysis assumption. One RNG stream per
// processor keeps runs reproducible regardless of interleaving.
type IID struct {
	F       float64
	streams []*rng.Xoshiro256
}

// NewIID creates an i.i.d. soft-fault injector for p processors with
// per-access fault probability f, seeded deterministically from seed.
func NewIID(p int, f float64, seed uint64) *IID {
	sm := rng.NewSplitMix64(seed)
	streams := make([]*rng.Xoshiro256, p)
	for i := range streams {
		streams[i] = rng.NewXoshiro256(sm.Next())
	}
	return &IID{F: f, streams: streams}
}

// At reports Soft with probability F.
func (in *IID) At(proc int) Kind {
	if in.streams[proc].Bernoulli(in.F) {
		return Soft
	}
	return None
}

// Script faults specific processors at specific access indices: a soft fault
// to force an exact interleaving (e.g. "replay right after the CAM"), a hard
// fault to place a death. A hard fault is reported once, at its ordinal; the
// machine never queries a dead processor again.
type Script struct {
	mu      sync.Mutex
	counts  map[int]int64
	actions map[int]map[int64]Kind
}

// NewScript returns an empty script.
func NewScript() *Script {
	return &Script{counts: map[int]int64{}, actions: map[int]map[int64]Kind{}}
}

// Add schedules kind for proc at its n-th fault point (0-based, counted over
// the processor's whole run, including replayed accesses after restarts).
func (s *Script) Add(proc int, n int64, kind Kind) *Script {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.actions[proc] == nil {
		s.actions[proc] = map[int64]Kind{}
	}
	s.actions[proc][n] = kind
	return s
}

// At consults the script.
func (s *Script) At(proc int) Kind {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.counts[proc]
	s.counts[proc] = n + 1
	if m := s.actions[proc]; m != nil {
		if k, ok := m[n]; ok {
			return k
		}
	}
	return None
}

// First composes injectors: it consults each in order and reports the first
// non-None verdict. Every injector sees every fault point, so the ordinals a
// Script counts and the draws an IID makes stay those of the bare injector.
type First []Injector

// At reports the first non-None verdict of the injectors.
func (f First) At(proc int) Kind {
	verdict := None
	for _, in := range f {
		if k := in.At(proc); k != None && verdict == None {
			verdict = k
		}
	}
	return verdict
}

// Liveness is the model's liveness oracle isLive(procID). The scheduler uses
// it to decide when a processor's in-progress work may be stolen. In a real
// system this would be a heartbeat with a timeout; here hard faults are
// reported by the machine run loop, so the oracle is exact.
type Liveness struct {
	dead []atomic.Bool
}

// NewLiveness creates an oracle for p processors, all initially live.
func NewLiveness(p int) *Liveness {
	return &Liveness{dead: make([]atomic.Bool, p)}
}

// IsLive reports whether proc has not hard-faulted.
func (l *Liveness) IsLive(proc int) bool { return !l.dead[proc].Load() }

// MarkDead records a hard fault for proc.
func (l *Liveness) MarkDead(proc int) { l.dead[proc].Store(true) }

// LiveCount returns the number of live processors.
func (l *Liveness) LiveCount() int {
	n := 0
	for i := range l.dead {
		if !l.dead[i].Load() {
			n++
		}
	}
	return n
}
