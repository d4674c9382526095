package graph

import (
	"slices"

	"repro/ppm"
)

// frontier is the sparse round driver of the BFS kernels: rows independent
// searches over one graph, search s owning the combined ids [s·n, (s+1)·n),
// so a frontier entry s·n+v means "vertex v, search s" (BFS is the one-row
// case). A round costs what its frontier and that frontier's arcs cost,
// never n. A frontier small enough for the engine's fuse budget (grains.fuse,
// entries plus arcs at the graph's average degree) is one capsule:
//
//	step — gathers the frontier's arc lists, issues one CAM per arc on the
//	       target's claimant word (owner[t]: NIL → the claiming entry) and
//	       then — every CAM first, reads after, so no word is written after it
//	       was read — reads the claimant words back with one GatherAt, writes
//	       the targets it owns at offset 0 of the other frontier buffer, sets
//	       level[t] = d for exactly those, and stores their count in sums[1].
//
// The round is then Seq(step, next round): one phase and one durable commit.
// A larger frontier is a fork-join tree over its slots [0, cnt), swept
// twice, each sweep one root-chain phase:
//
//	up   — a leaf claims and reads back like step, and counts the targets it
//	       owns. Counts combine up the tree into block-spaced partial sums;
//	       the root, sums[1], holds the next frontier's size.
//	down — a leaf re-derives the same owned set without claiming and emits it
//	       like step, at its prefix offset.
//
// Either way a capsule reads front[parity] and only writes front[1-parity],
// level and sums, and the next round reads sums[1] in a capsule of its own.
// A claimant word is written once per search, so the read-back is the later
// read that decides a CAM (Section 5) even inside the claiming capsule: once
// the capsule's own CAM has run the word is non-NIL for good, and a replay,
// the down sweep and a recovered run all see the value the first execution
// saw. A non-NIL claimant also means "discovered", so levels need no CAM. An
// entry sits in exactly one slot of its round, a self-loop never claims and a
// target repeated in one arc list is emitted once, so every reached vertex is
// emitted exactly once per search: visited, the sum of all frontier sizes,
// equals the number of reached vertices, and Verify checks that it does.
type frontier struct {
	n       int // vertices per search row
	cs      vcsr
	owner   ppm.Array // rows·n claimant words
	level   ppm.Array // rows·n levels
	front   [2]ppm.Array
	visited ppm.Array // 1 word: frontier entries swept by the last search

	// A search is Seq(init(extent), seed(ids...), round(1, 0, 0)): reset the
	// rows below extent, make the ids level-0 entries, run rounds until one
	// emits nothing.
	init, seed, round ppm.FuncRef
}

func newFrontier(rt *ppm.Runtime, name string, cs vcsr, g *Graph, rows int) *frontier {
	n := g.N
	f := &frontier{n: n, cs: cs,
		owner:   rt.NewArray(rows * n),
		level:   rt.NewArray(rows * n),
		front:   [2]ppm.Array{rt.NewArray(rows * n), rt.NewArray(rows * n)},
		visited: rt.NewArray(1),
	}
	grain := grainsFor(rt)
	// A round fuses when its entries and their arcs, at g's average degree,
	// fit the engine's fuse budget.
	fuse := uint64(grain.fuse * n / (n + g.Arcs()))
	// The round tree's partial sums, heap-numbered from the root at 1; one
	// block each, so a combine writes no block it read.
	sums := rt.NewBlockArray(4 * (rows*n/grain.frontier + 2))

	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		vals := fillVec(c, hi-lo, inf) // INF and NIL are the same word
		f.level.SetRange(c, lo, vals)
		f.owner.SetRange(c, lo, vals)
		c.Done()
	})
	f.init = rt.Register(name+"/initP", func(c ppm.Ctx) {
		c.ParallelFor(initLeaf, 0, c.Int(0), grain.dense)
	})
	// seed takes the level-0 entries as its arguments; each claims itself.
	f.seed = rt.Register(name+"/seed", func(c ppm.Ctx) {
		ids := c.Scratch(c.NArgs())
		for i := range ids {
			ids[i] = c.Uint(i)
			f.level.Set(c, int(ids[i]), 0)
			f.owner.Set(c, int(ids[i]), ids[i])
		}
		f.front[0].SetRange(c, 0, ids)
		sums.Set(c, 1, uint64(len(ids)))
		c.Done()
	})

	// step is a whole round over slots [0, cnt) of front[parity]: args
	// [d, parity, cnt].
	step := rt.Register(name+"/step", func(c ppm.Ctx) {
		d, parity, cnt := c.Uint(0), c.Int(1), c.Int(2)
		out := f.owned(c, 0, cnt, parity, true)
		f.emit(c, parity, 0, d, out)
		sums.Set(c, 1, uint64(len(out)))
		c.Done()
	})

	upCmb := rt.Register(name+"/upcmb", func(c ppm.Ctx) {
		node := c.Int(0)
		l := sums.Get(c, 2*node)
		r := sums.Get(c, 2*node+1)
		sums.Set(c, node, l+r)
		c.Done()
	})
	// up covers slots [lo, hi) of front[parity]: args [node, lo, hi, parity].
	var up ppm.FuncRef
	up = rt.Register(name+"/up", func(c ppm.Ctx) {
		node, lo, hi, parity := c.Int(0), c.Int(1), c.Int(2), c.Int(3)
		if hi-lo <= grain.frontier {
			sums.Set(c, node, uint64(len(f.owned(c, lo, hi, parity, true))))
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		c.ForkThen(
			up.Call(2*node, lo, mid, parity),
			up.Call(2*node+1, mid, hi, parity),
			upCmb.Call(node))
	})
	// down emits what slots [lo, hi) own at offset t of the other buffer:
	// args [node, lo, hi, parity, d, t].
	var down ppm.FuncRef
	down = rt.Register(name+"/down", func(c ppm.Ctx) {
		node, lo, hi, parity := c.Int(0), c.Int(1), c.Int(2), c.Int(3)
		d, t := c.Uint(4), c.Int(5)
		if hi-lo <= grain.frontier {
			f.emit(c, parity, t, d, f.owned(c, lo, hi, parity, false))
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		lsum := int(sums.Get(c, 2*node))
		c.Fork(
			down.Call(2*node, lo, mid, parity, d, t),
			down.Call(2*node+1, mid, hi, parity, d, t+lsum))
	})

	// round reads its frontier's size off sums[1], where the previous round
	// (or seed) left it, and hands it on as an argument: args [d, parity,
	// seen], seen the entries swept so far.
	f.round = rt.Register(name+"/round", func(c ppm.Ctx) {
		d, parity, seen := c.Uint(0), c.Int(1), c.Uint(2)
		cnt := sums.Get(c, 1)
		if cnt == 0 {
			f.visited.Set(c, 0, seen)
			c.Done()
			return
		}
		if cnt <= fuse {
			c.Seq(step.Call(d, parity, cnt), f.round.Call(d+1, 1-parity, seen+cnt))
			return
		}
		c.Seq(
			up.Call(1, 0, cnt, parity),
			down.Call(1, 0, cnt, parity, d, 0),
			f.round.Call(d+1, 1-parity, seen+cnt))
	})
	return f
}

// owned returns, in ephemeral memory, the entries that slots [lo, hi) of
// front[parity] emit: the arc targets whose claimant word names the slot's
// own entry. With claim set it first CAMs every target's claimant word; with
// or without, the answer is the same once the claiming sweep has run.
func (f *frontier) owned(c ppm.Ctx, lo, hi, parity int, claim bool) []uint64 {
	ids := f.front[parity].Slice(c, lo, hi)
	vs := c.Scratch(len(ids))
	for i, id := range ids {
		vs[i] = id % uint64(f.n)
	}
	spans, tgts := f.cs.gatherAdj(c, vs)
	i := 0
	for idx, id := range ids {
		for end := i + spans[idx][1] - spans[idx][0]; i < end; i++ {
			tgts[i] += id - vs[idx] // arc target → combined id in the entry's row
			if claim && tgts[i] != id {
				c.CAM(f.owner.At(int(tgts[i])), nilParent, id)
			}
		}
	}
	own := f.owner.GatherAt(c, tgts, nil)
	out := c.Scratch(len(tgts))[:0]
	i = 0
	for idx, id := range ids {
		start := len(out)
		for end := i + spans[idx][1] - spans[idx][0]; i < end; i++ {
			if own[i] == id && tgts[i] != id {
				out = append(out, tgts[i])
			}
		}
		if len(out)-start > 1 { // parallel arcs claim one target more than once
			slices.Sort(out[start:])
			out = out[:start+len(slices.Compact(out[start:]))]
		}
	}
	return out
}

// emit writes out, what some slots of front[parity] own, at offset t of the
// other buffer and sets their level to d.
func (f *frontier) emit(c ppm.Ctx, parity, t int, d uint64, out []uint64) {
	if len(out) == 0 {
		return
	}
	f.front[1-parity].SetRange(c, t, out)
	for _, id := range out {
		f.level.Set(c, int(id), d)
	}
}
