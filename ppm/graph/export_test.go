package graph

import "repro/ppm"

// FrontierGrain is the frontier leaf size of the engine rt runs on, for the
// work bounds of the external tests.
func FrontierGrain(rt *ppm.Runtime) int { return grainsFor(rt).frontier }

// LeafTable is the leaf table of the CSR offsets offs under budget, and
// LeafVertexCost the weight each vertex adds to its arcs there, for the
// table's own tests.
func LeafTable(offs []uint64, budget int) []uint64 { return leafTable(offs, budget) }

const LeafVertexCost = leafVertexCost

// Leaves is the number of leaves in g's leaf table on engine eng: the width
// of the fork-join tree of every per-arc sweep over g, on which its capsule
// count depends.
func Leaves(eng ppm.Engine, g *Graph) int {
	budget := modelGrains.leaf
	if eng == ppm.EngineNative {
		budget = nativeGrains.leaf
	}
	return len(leafTable(g.Offs, budget)) - 1
}

// RoundKinds reads the round log of the last search a BFS or MultiBFS ran:
// "fused", "tree", "pull", "compact+fused", "compact+tree" or "sweep" per
// round.
func RoundKinds(a any) []string {
	var f *frontier
	switch a := a.(type) {
	case bfs:
		f = a.fr
	case *MultiBFS:
		f = a.fr
	default:
		panic("graph: RoundKinds of a kernel without rounds")
	}
	names := map[uint64]string{
		roundFused: "fused", roundTree: "tree", roundPull: "pull",
		roundCompact | roundFused: "compact+fused", roundCompact | roundTree: "compact+tree",
		roundSweep: "sweep",
	}
	var out []string
	for _, k := range f.roundKinds() {
		out = append(out, names[k])
	}
	return out
}

// HoldsHostGraph reports whether r still points at the host graph it was
// made from: Build drops it once epoch 0 is loaded.
func HoldsHostGraph(r *Resident) bool { return r.base != nil }

// NextProgram makes the next batch of ms run the named program, "rows" or
// "sweep" (the sweep only at widths of 2 or more, as the rule has it), by
// setting the rounds the program rule reads: 0, no search of record, or 1.
// The batch's own search sets them again.
func NextProgram(ms *MultiBFS, name string) {
	var r int64
	if name == "sweep" {
		r = 1
	}
	ms.rounds.Store(r)
}

// ResumedBatch tells a MultiBFS rebuilt on a recovered runtime which batch
// the resumed run searched from, so Levels and Verify read it.
func ResumedBatch(ms *MultiBFS, srcs []int) { ms.lastSrcs = srcs }
