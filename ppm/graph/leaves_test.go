package graph_test

import (
	"slices"
	"testing"

	"repro/ppm/graph"
)

// checkLeafTable checks a leaf table b of the offsets offs under budget: it
// runs from 0 to n in strictly increasing boundaries (none at all for an
// empty graph), every leaf's arcs plus graph.LeafVertexCost per vertex fit
// the budget unless the leaf is one vertex, every leaf but the last ends
// only because its next vertex would pass the budget (greedy maximality),
// and a second call cuts the same table.
func checkLeafTable(t *testing.T, offs []uint64, budget int, b []uint64) {
	t.Helper()
	n := len(offs) - 1
	weight := func(lo, hi uint64) int {
		return int(offs[hi]-offs[lo]) + graph.LeafVertexCost*int(hi-lo)
	}
	if n == 0 {
		if !slices.Equal(b, []uint64{0}) {
			t.Fatalf("empty graph: table %v, want [0]", b)
		}
		return
	}
	if len(b) < 2 || b[0] != 0 || b[len(b)-1] != uint64(n) {
		t.Fatalf("table %v does not run from 0 to %d", b, n)
	}
	for k := 0; k+1 < len(b); k++ {
		lo, hi := b[k], b[k+1]
		if lo >= hi {
			t.Fatalf("table %v: boundary %d = %d is not below the next, %d", b, k, lo, hi)
		}
		if w := weight(lo, hi); w > budget && hi-lo > 1 {
			t.Fatalf("table %v: leaf %d = [%d, %d) weighs %d, budget %d", b, k, lo, hi, w, budget)
		}
		if k+2 < len(b) && weight(lo, hi+1) <= budget {
			t.Fatalf("table %v: leaf %d = [%d, %d) could take vertex %d within budget %d", b, k, lo, hi, hi, budget)
		}
	}
	if again := graph.LeafTable(offs, budget); !slices.Equal(again, b) {
		t.Fatalf("two calls cut %v and %v", b, again)
	}
}

// starArcs returns the arcs of the star on n vertices around hub.
func starArcs(n, hub int) [][2]int {
	var arcs [][2]int
	for v := 0; v < n; v++ {
		if v != hub {
			arcs = append(arcs, [2]int{hub, v}, [2]int{v, hub})
		}
	}
	return arcs
}

// TestLeafTable pins the tables of small graphs at small budgets, where
// every vertex weighs its degree plus 3, and checks each against the
// table's invariants.
func TestLeafTable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		budget int
		want   []uint64 // nil: invariants only
	}{
		{"empty", graph.FromArcs(0, nil), 10, []uint64{0}},
		{"n=1", graph.FromArcs(1, nil), 10, []uint64{0, 1}},
		{"n=1/over budget", graph.FromArcs(1, nil), 2, []uint64{0, 1}},
		{"edgeless", graph.FromArcs(100, nil), 30, []uint64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}},
		{"path", pathGraph(5), 10, []uint64{0, 2, 4, 5}},
		{"path/long", pathGraph(1000), 64, nil},
		{"star/hub first", graph.FromArcs(6, starArcs(6, 0)), 10, []uint64{0, 1, 3, 5, 6}},
		{"star/hub last", graph.FromArcs(6, starArcs(6, 5)), 10, []uint64{0, 2, 4, 5, 6}},
		{"star/hub over budget", graph.FromArcs(20, starArcs(20, 7)), 10, nil},
		{"zero-degree runs", graph.FromArcs(12, [][2]int{{0, 1}, {1, 0}, {10, 11}, {11, 10}}), 10,
			[]uint64{0, 2, 5, 8, 11, 12}},
		{"rand", graph.Rand(3000, 12000, 7), 2048, nil},
		{"rmat", graph.RMAT(4096, 16384, 7), 512, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := graph.LeafTable(tc.g.Offs, tc.budget)
			if tc.want != nil && !slices.Equal(b, tc.want) {
				t.Fatalf("table %v, want %v", b, tc.want)
			}
			checkLeafTable(t, tc.g.Offs, tc.budget, b)
		})
	}
}

// FuzzLeafTable cuts leaf tables of fuzzed degree sequences: the budget is
// 1 + data[0] + 256·data[1], and every later byte is one vertex's degree, so
// budgets below one vertex's weight, hubs over the budget and runs of
// zero-degree vertices all occur.
func FuzzLeafTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 0, 1, 2, 2, 2, 1})          // a path at budget 10
	f.Add([]byte{9, 0, 5, 1, 1, 1, 1, 1})       // a star, hub first
	f.Add([]byte{1, 0, 0, 0, 0, 0})             // every vertex over the budget
	f.Add([]byte{63, 0, 0, 0, 0, 200, 0, 0, 3}) // a hub between zero-degree runs
	f.Fuzz(func(t *testing.T, data []byte) {
		budget := 1
		if len(data) >= 2 {
			budget += int(data[0]) + 256*int(data[1])
			data = data[2:]
		}
		offs := make([]uint64, len(data)+1)
		for v, d := range data {
			offs[v+1] = offs[v] + uint64(d)
		}
		checkLeafTable(t, offs, budget, graph.LeafTable(offs, budget))
	})
}
