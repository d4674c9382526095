package graph

// Catalog registration: importing this package adds the graph workloads to
// ppm.Catalog(), so every catalog-driven driver — the cross-engine tests, the
// catalog fault-ceiling test, the asymmetric-cost ablation — picks them up
// with no per-workload wiring. The catalog's n is the vertex count; the
// instances run over deterministic symmetric random graphs sized so the work
// is edge-dominated (the regime the paper's irregular workloads target).

import "repro/ppm"

// DefaultIters is the catalog PageRank iteration count (enough rounds for a
// meaningful contraction, few enough that the model engine stays quick).
const DefaultIters = 10

func init() {
	ppm.RegisterSpec(ppm.Spec{Name: "bfs",
		New: func(tag string, n int, seed uint64) ppm.Algorithm {
			return BFS(tag, Rand(n, 4*n, seed), 0)
		}})
	ppm.RegisterSpec(ppm.Spec{Name: "cc",
		New: func(tag string, n int, seed uint64) ppm.Algorithm {
			// 2n edges leave a few components to find (4n is almost surely
			// one giant component).
			return Components(tag, Rand(n, 2*n, seed))
		}})
	ppm.RegisterSpec(ppm.Spec{Name: "pagerank",
		New: func(tag string, n int, seed uint64) ppm.Algorithm {
			return PageRank(tag, Rand(n, 4*n, seed), DefaultIters)
		}})
}
