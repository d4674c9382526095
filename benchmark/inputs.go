package main

import (
	"fmt"

	"repro/internal/rng"
	"repro/ppm/graph"
)

// Everything the programs under test receive is generated here from the
// run's seed: graphs, BFS sources, array contents, mutation edge sets and
// request sequences. Distinct streams are split off the seed with the
// constants below so that, say, asking for more sources does not change the
// edge set.
const (
	streamGraph   = 0x9e3779b97f4a7c15 // step between candidate graph seeds
	streamSources = 0x51ed270b3a1c6e37
	streamEdges   = 0x2545f4914f6cdd1d
	streamClient  = 0x6a09e667f3bcc909
	streamArrays  = 0xbb67ae8584caa73b
)

// shape is the part of a random graph that decides how much work the kernels
// do on it, beyond n and m: lp, the rounds label propagation needs, and bfs,
// the depth of a BFS from a source. A zero field is not pinned.
type shape struct{ lp, bfs int }

// pinnedShape gives the shape input generation holds constant for the graph
// sizes the workloads use: the most frequent value over seeds. Both kernels
// do a full pass per round, so one round more or less between two seeds moves
// cc_ms by 8-12% and bfs_ms by about half that, which is as wide as the
// bounds. Pinning keeps the seed in charge of the data (which vertices, which
// arcs) but not of the amount of work. Sizes not listed (the toy sizes of the
// tests) are not pinned.
func pinnedShape(spec graphSpec) shape { return pinnedShapes[spec] }

var pinnedShapes = map[graphSpec]shape{
	{"rand", 100000, 400000}: {lp: 9, bfs: 8},
	{"rand", 32768, 131072}:  {lp: 8, bfs: 7},
	{"rand", 32768, 65536}:   {lp: 13, bfs: 12},
	// A mesh has one lp whatever the seed; 191 is the most frequent
	// eccentricity of the 128x128 mesh (one vertex in 64 has it).
	{"grid", 16384, 0}: {bfs: 191},
}

// graphSpec names a generated graph: generator, vertices, undirected edges.
type graphSpec struct {
	kind string
	n, m int
}

// The rejection loops are bounded; the pinned values are the modes, so a
// miss this long means the table no longer fits the generator.
const (
	maxGraphTries  = 64
	maxSourceTries = 4096 // per source
)

// graphSeedFor returns the first seed in the sequence seed, seed+step, … whose
// generated graph has the pinned label-propagation depth. Deterministic in
// its arguments; the search itself is the benchmark's own work and is kept
// out of setup_s (the accepted graph is generated again under the timer).
func graphSeedFor(spec graphSpec, seed uint64) (uint64, error) {
	want := pinnedShape(spec).lp
	if want == 0 {
		return seed, nil
	}
	for try := 0; try < maxGraphTries; try++ {
		s := seed + uint64(try)*streamGraph
		g, err := graph.Generate(spec.kind, spec.n, spec.m, s)
		if err != nil {
			return 0, err
		}
		if labelRounds(g) == want {
			return s, nil
		}
	}
	return 0, fmt.Errorf("no %v graph with %d label rounds within %d seeds of %d",
		spec, want, maxGraphTries, seed)
}

// pickSources draws k distinct BFS sources whose BFS has the pinned depth
// (any vertex with an arc when the size is not pinned, so a toy BFS still
// leaves its source).
func pickSources(g *graph.Graph, spec graphSpec, k int, seed uint64) ([]int, error) {
	want := pinnedShape(spec).bfs
	x := rng.NewXoshiro256(seed ^ streamSources)
	taken := make(map[int]bool)
	var out []int
	for try := 0; len(out) < k && try < maxSourceTries*k; try++ {
		v := x.Intn(g.N)
		if taken[v] || (g.N > 1 && g.Degree(v) == 0) {
			continue
		}
		if want != 0 {
			if _, depth, _ := bfsSummary(baselineBFS(g, v)); int(depth) != want {
				continue
			}
		}
		taken[v] = true
		out = append(out, v)
	}
	if len(out) < k {
		return nil, fmt.Errorf("found %d of %d BFS sources of depth %d", len(out), k, want)
	}
	return out, nil
}

// pickEdges draws k distinct undirected edges absent from g, none a
// self-loop. Inserting the set and then deleting it restores g exactly —
// Resident deletes every occurrence of an edge, so a set overlapping g would
// take base edges with it — which lets the mutating workloads alternate
// between two known graphs for as long as they run.
func pickEdges(g *graph.Graph, k int, seed uint64) [][2]int {
	x := rng.NewXoshiro256(seed ^ streamEdges)
	taken := make(map[[2]int]bool)
	out := make([][2]int, 0, k)
	for len(out) < k {
		u, v := x.Intn(g.N), x.Intn(g.N)
		if u > v {
			u, v = v, u
		}
		if u == v || taken[[2]int{u, v}] || g.HasArc(u, v) {
			continue
		}
		taken[[2]int{u, v}] = true
		out = append(out, [2]int{u, v})
	}
	return out
}

// randomWords returns n words below mod from the seed's array stream.
func randomWords(n int, seed, mod uint64) []uint64 {
	x := rng.NewXoshiro256(seed ^ streamArrays)
	out := make([]uint64, n)
	for i := range out {
		out[i] = x.Next() % mod
	}
	return out
}

// sameWords reports the first difference between two word arrays.
func sameWords(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("word %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	return nil
}
