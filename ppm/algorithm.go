package ppm

import (
	"fmt"

	"repro/internal/rng"
)

// Algorithm is the uniform workload interface: an instance carries its own
// input, binds to a Runtime in Build (allocating arrays, registering
// capsules, loading the input), executes under that runtime's engine and
// fault model in Run, and checks its own output against a sequential
// reference in Verify. Benchmarks, experiments, and examples all drive
// workloads through this one interface instead of per-algorithm adapters.
//
// Every implementation in this package is written purely against Ctx and
// Array (see workloads.go), so the same instance runs on the model engine
// and the native engine with zero per-algorithm changes — rebuild it on a
// runtime with a different WithEngine and Run again.
type Algorithm interface {
	// Name identifies the workload (unique within a runtime).
	Name() string
	// Build binds the instance to rt: allocate, register capsules, load
	// input. Call at most once per runtime, before that runtime runs
	// anything else under the same name; building again on a fresh runtime
	// rebinds the instance (the benchmark-loop pattern).
	Build(rt *Runtime)
	// Run executes the workload on rt's scheduler. It returns false if
	// every processor died before completion.
	Run() bool
	// Output returns the result array (harness-side read).
	Output() []uint64
	// Verify checks Output against a sequential reference implementation.
	Verify() error
}

func verifyWords(name string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: output length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: output[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}

// ---- catalog ----

// Spec is a catalog entry: a named factory producing a self-contained
// instance over a pseudo-random input of the requested size.
type Spec struct {
	Name string
	// New builds an instance over a seeded pseudo-random input of size n.
	New func(tag string, n int, seed uint64) Algorithm
}

// extraSpecs holds catalog entries contributed by other packages via
// RegisterSpec (the graph subsystem registers bfs/cc/pagerank here).
var extraSpecs []Spec

// RegisterSpec adds a workload to the catalog. Subsystem packages that build
// on ppm (and therefore cannot be listed in Catalog directly without an
// import cycle) call this from init(); importing such a package is what puts
// its workloads into every catalog-driven benchmark, sweep, and test.
// Duplicate names panic.
func RegisterSpec(s Spec) {
	if s.Name == "" || s.New == nil {
		panic("ppm: RegisterSpec needs a name and a factory")
	}
	for _, have := range Catalog() {
		if have.Name == s.Name {
			panic("ppm: duplicate catalog workload " + s.Name)
		}
	}
	extraSpecs = append(extraSpecs, s)
}

// Catalog returns the standard workload registry — one uniform entry per
// Section 7 algorithm, plus any subsystem entries added via RegisterSpec.
// Experiments and benchmarks iterate this instead of wiring each algorithm
// by hand; every entry builds, runs, and verifies on both engines.
func Catalog() []Spec {
	base := []Spec{
		{Name: "prefixsum", New: func(tag string, n int, seed uint64) Algorithm {
			return PrefixSum(tag, randWords(n, seed, 1000), 0)
		}},
		{Name: "merge", New: func(tag string, n int, seed uint64) Algorithm {
			return Merge(tag, SortedInput(n/2, seed), SortedInput(n-n/2, seed+1))
		}},
		{Name: "mergesort", New: func(tag string, n int, seed uint64) Algorithm {
			return MergeSort(tag, randWords(n, seed, 1_000_000), 1024)
		}},
		{Name: "samplesort", New: func(tag string, n int, seed uint64) Algorithm {
			return SampleSort(tag, randWords(n, seed, 1_000_000), 1024)
		}},
		{Name: "matmul", New: func(tag string, n int, seed uint64) Algorithm {
			base := 8
			if base > n {
				base = n
			}
			return MatMul(tag, n, base, randWords(n*n, seed, 10), randWords(n*n, seed+1, 10))
		}},
	}
	return append(base, extraSpecs...)
}

// NewByName builds a catalog instance by workload name.
func NewByName(name, tag string, n int, seed uint64) (Algorithm, bool) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s.New(tag, n, seed), true
		}
	}
	return nil, false
}

// CatalogNames returns the workload names, for diagnostics.
func CatalogNames() []string {
	var out []string
	for _, s := range Catalog() {
		out = append(out, s.Name)
	}
	return out
}

// SortedInput generates n non-decreasing pseudo-random keys — staged input
// for merge-style workloads.
func SortedInput(n int, seed uint64) []uint64 {
	x := rng.NewXoshiro256(seed)
	out := make([]uint64, n)
	var acc uint64
	for i := range out {
		acc += x.Next() % 64
		out[i] = acc
	}
	return out
}

func randWords(n int, seed, mod uint64) []uint64 {
	x := rng.NewXoshiro256(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = x.Next() % mod
	}
	return out
}
