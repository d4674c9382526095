package graph

import (
	"slices"

	"repro/ppm"
)

// frontier is the round driver of the BFS kernels' rows program: rows
// independent searches over one graph, search s owning the combined ids
// [s·n, (s+1)·n), so a frontier entry s·n+v means "vertex v, search s" (BFS
// is the one-row case). Its level[0], owner, round log, done words and sums
// are also where a MultiBFS sweep (sweep.go) writes its levels and parents
// and counts its rounds, so one reader serves both programs. Round d turns
// the frontier, the ids at level d-1, into the ids at level d. It pushes
// from the frontier while the frontier is a small share of the search, and
// pulls into the unvisited ids once it is a large one (direction
// optimisation, Beamer et al.; roundKind has the rule).
//
// A pushing round costs what its frontier and that frontier's arcs cost,
// never n. A frontier small enough for the engine's fuse budget (grains.fuse,
// entries plus arcs at the graph's average degree) is one capsule:
//
//	step — gathers the frontier's arc lists, issues one CAM per arc on the
//	       target's claimant word (owner[t]: NIL → the claiming entry) and
//	       then — every CAM first, reads after, so no word is written after it
//	       was read — reads the claimant words back with one GatherAt, writes
//	       the targets it owns at offset 0 of the other frontier buffer, sets
//	       level[0][t] = d for exactly those, and stores their count in sums[1].
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
// A pulling round is one root-chain phase, Seq(pull, next round), over the
// search's extent, the combined ids [0, rows·n) of the rows in use:
//
//	pull — a fork-join tree over the rows·L leaves of the search, L the
//	       leaf table's count (leafTable): leaf j covers the combined ids
//	       row·n + [b[k], b[k+1]) with row = j / L and k = j mod L, so it
//	       never straddles a row and its arcs fit the leaf budget. A leaf
//	       finds its ids still at INF in level[cur] and reads their offsets
//	       in place, as one Slice from the first to the last. It gathers
//	       only their arc lists, in one Gather, reads their targets' levels
//	       back with one GatherAt, and gives each the first target at level
//	       d-1, in arc order, as its parent. It writes its whole range of
//	       level[1-cur], stores the parents in owner, which it never reads,
//	       and leaves its count at its tree node of sums, so sums[1] holds
//	       the next frontier's size as the up sweep leaves it.
//
// No CAM is needed: an id has one leaf, and the leaf reads only level[cur],
// which no capsule of the phase writes. Levels ping-pong between level[0]
// and level[1] across pulls; a push reads no level and writes level[0]. A
// pulled frontier is listed nowhere, so a push that follows a pull is
// preceded, in its own chain, by
//
//	compact — a down sweep over the pull's tree of leaves and the sums it
//	       left, which lists the ids at level d-1 in front[0] at their prefix
//	       offsets and copies level[1] into level[0] when the levels are in
//	       level[1].
//
// A push reads front[parity] and writes front[1-parity], level[0], owner (by
// CAM) and sums; a pull reads level[cur] and writes level[1-cur], owner and
// sums; a compaction reads level[cur] and sums and writes front[0] and, when
// cur is 1, level[0]. No capsule writes what it read, and the next round
// reads sums[1] in a capsule of its own. A claimant word is
// written once per search, so the read-back is the later read that decides a
// CAM (Section 5) even inside the claiming capsule: once the capsule's own
// CAM has run the word is non-NIL for good, and a replay, the down sweep and
// a recovered run all see the value the first execution saw. Between rounds
// an id has a claimant exactly when its level is set, so a pull's parents
// are claimants no push contends for, and no level needs a CAM. An entry sits
// in exactly one slot of its round, an id in one pull leaf, a self-loop never
// claims and a target repeated in one arc list is emitted once, so every
// reached vertex is emitted exactly once per search: visited, the sum of all
// frontier sizes, equals the number of reached vertices, and Verify checks
// that it does.
type frontier struct {
	n     int // vertices per search row
	cs    vcsr
	owner ppm.Array    // rows·n claimant words
	level [2]ppm.Array // rows·n levels each, ping-pong across pulls
	front [2]ppm.Array
	kinds ppm.Array // n+1 words: the kind of each round of the last search
	done  ppm.Array // 2 words the last round writes: entries swept, and level buffer + 2·its round number
	// sums holds the round trees' partial sums, heap-numbered from the root
	// at 1, one block each; upCmb combines a node's two children.
	sums  ppm.Array
	upCmb ppm.FuncRef

	// A search is Seq(init(extent), seed(ids...), round(1, 0, 0, extent, 0,
	// 0)): reset the rows below extent, make the ids level-0 entries, run
	// rounds until one finds the frontier empty.
	init, seed, round ppm.FuncRef
}

// The kinds of round, as the round log records them.
const (
	roundEnd     = 0 // the frontier is empty: the search is over
	roundFused   = 1 // Seq(step, round')
	roundTree    = 2 // Seq(up, down, round')
	roundPull    = 3 // Seq(pull, round')
	roundCompact = 4 // or'ed into a push that follows a pull: compact first
	roundSweep   = 8 // Seq(sweep, round'): a round of the sweep program (sweep.go)
)

// roundKind is the direction rule. A round pulls when its frontier holds at
// least 1/pullFrontier of the extent and, unless the round before pulled
// too, at least 1/pullUnvisited of the ids still unvisited; it pushes
// otherwise, in one step when the frontier fits the fuse count. It reads
// only the round's arguments and the frontier size cnt, never a measurement,
// so capsule counts are exact and a recovered runtime rebuilds the crashed
// run's rounds.
func roundKind(cnt, seen, extent, fuse uint64, pulled bool) uint64 {
	if cnt == 0 {
		return roundEnd
	}
	if pullFrontier*cnt >= extent && (pulled || pullUnvisited*cnt >= extent-seen-cnt) {
		return roundPull
	}
	kind := uint64(roundTree)
	if cnt <= fuse {
		kind = roundFused
	}
	if pulled {
		kind |= roundCompact
	}
	return kind
}

func newFrontier(rt *ppm.Runtime, name string, cs vcsr, arcs, rows int) *frontier {
	n := cs.n
	f := &frontier{n: n, cs: cs,
		owner: rt.NewArray(rows * n),
		level: [2]ppm.Array{rt.NewArray(rows * n), rt.NewArray(rows * n)},
		front: [2]ppm.Array{rt.NewArray(rows * n), rt.NewArray(rows * n)},
		kinds: rt.NewArray(n + 1), // a search of depth D runs D+2 ≤ n+1 rounds
		done:  rt.NewArray(2),
	}
	grain := grainsFor(rt)
	// A round fuses when its entries and their arcs, at the epoch-0 average
	// degree, fit the engine's fuse budget.
	fuse := uint64(grain.fuse * n / (n + arcs))
	// The round trees' partial sums, heap-numbered from the root at 1; one
	// block each, so a combine writes no block it read. Sized for the larger
	// of the frontier tree, over at most rows·n slots, and the pull tree,
	// over rows·L leaves.
	sums := rt.NewBlockArray(4 * (max(rows*n/grain.frontier, rows*cs.leaves.count()) + 2))
	f.sums = sums

	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		vals := fillVec(c, hi-lo, inf) // INF and NIL are the same word
		f.level[0].SetRange(c, lo, vals)
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
			f.level[0].Set(c, int(ids[i]), 0)
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
	f.upCmb = upCmb
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

	// pull finds round d's ids among the ids of leaves [lo, hi) by reading
	// level[cur]: args [node, lo, hi, d, cur].
	var pull ppm.FuncRef
	pull = rt.Register(name+"/pull", func(c ppm.Ctx) {
		node, lo, hi := c.Int(0), c.Int(1), c.Int(2)
		d, cur := c.Uint(3), c.Int(4)
		if hi-lo == 1 {
			sums.Set(c, node, f.pull(c, lo, d, cur))
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		c.ForkThen(
			pull.Call(2*node, lo, mid, d, cur),
			pull.Call(2*node+1, mid, hi, d, cur),
			upCmb.Call(node))
	})
	// compact lists the ids at level lvl among the ids of leaves [lo, hi)
	// in front[0] at offset t, down the tree of the pull before it: args
	// [node, lo, hi, lvl, t, cur].
	var compact ppm.FuncRef
	compact = rt.Register(name+"/compact", func(c ppm.Ctx) {
		node, lo, hi := c.Int(0), c.Int(1), c.Int(2)
		lvl, t, cur := c.Uint(3), c.Int(4), c.Int(5)
		if hi-lo == 1 {
			lo, hi := f.leaf(c, lo)
			lv := f.level[cur].Slice(c, lo, hi)
			if cur == 1 {
				f.level[0].SetRange(c, lo, lv)
			}
			out := c.Scratch(hi - lo)[:0]
			for i, l := range lv {
				if l == lvl {
					out = append(out, uint64(lo+i))
				}
			}
			if len(out) > 0 {
				f.front[0].SetRange(c, t, out)
			}
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		lsum := int(sums.Get(c, 2*node))
		c.Fork(
			compact.Call(2*node, lo, mid, lvl, t, cur),
			compact.Call(2*node+1, mid, hi, lvl, t+lsum, cur))
	})

	// round reads its frontier's size off sums[1], where the previous round
	// (or seed) left it, and hands it on as an argument: args [d, parity,
	// seen, extent, cur, pulled], seen the entries swept so far, the levels
	// in level[cur], and pulled 1 when the previous round pulled, whose
	// frontier no buffer lists. The round records its kind in the round log.
	f.round = rt.Register(name+"/round", func(c ppm.Ctx) {
		d, parity, seen := c.Uint(0), c.Int(1), c.Uint(2)
		extent, cur, pulled := c.Int(3), c.Int(4), c.Uint(5) == 1
		cnt := sums.Get(c, 1)
		nleaves := extent / n * cs.leaves.count() // the pull tree's leaves
		kind := roundKind(cnt, seen, uint64(extent), fuse, pulled)
		f.kinds.Set(c, int(d-1), kind)
		if kind&roundCompact != 0 {
			parity = 0 // compact lists the frontier in front[0]
		}
		next := f.round.Call(d+1, 1-parity, seen+cnt, extent, 0, 0)
		switch kind {
		case roundEnd:
			f.finish(c, seen, uint64(cur), d)
			c.Done()
		case roundPull:
			c.Seq(
				pull.Call(1, 0, nleaves, d, cur),
				f.round.Call(d+1, 0, seen+cnt, extent, 1-cur, 1))
		case roundFused:
			c.Seq(step.Call(d, parity, cnt), next)
		case roundTree:
			c.Seq(up.Call(1, 0, cnt, parity), down.Call(1, 0, cnt, parity, d, 0), next)
		case roundCompact | roundFused:
			c.Seq(compact.Call(1, 0, nleaves, d-1, 0, cur), step.Call(d, parity, cnt), next)
		default: // roundCompact | roundTree
			c.Seq(
				compact.Call(1, 0, nleaves, d-1, 0, cur),
				up.Call(1, 0, cnt, parity),
				down.Call(1, 0, cnt, parity, d, 0),
				next)
		}
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
	// With claim set, every arc but a self-loop claims its target for the
	// entry: one batched CAMAt over those targets, each claimed by its id.
	var cidx, cval []uint64
	if claim {
		cidx, cval = c.Scratch(len(tgts))[:0], c.Scratch(len(tgts))[:0]
	}
	i := 0
	for idx, id := range ids {
		for end := i + spans[idx][1] - spans[idx][0]; i < end; i++ {
			tgts[i] += id - vs[idx] // arc target → combined id in the entry's row
			if claim && tgts[i] != id {
				cidx = append(cidx, tgts[i])
				cval = append(cval, id)
			}
		}
	}
	if claim {
		f.owner.CAMAt(c, cidx, nilParent, cval)
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
	f.level[0].ScatterAt(c, out, fillVec(c, len(out), d))
}

// leaf reads the combined ids [lo, hi) of pull leaf j: leaf j mod L of the
// leaf table in row j / L.
func (f *frontier) leaf(c ppm.Ctx, j int) (lo, hi int) {
	l := f.cs.leaves.count()
	base := j / l * f.n
	lo, hi = f.cs.leaves.at(c, j%l)
	return base + lo, base + hi
}

// pull finds the ids of pull leaf j that round d reaches: those level[cur]
// holds at INF with an arc to an id of their row at level d-1. Each takes
// the first such target, in arc order, as its parent. It writes the leaf's
// levels, d for every id found, to level[1-cur] and the parents to owner,
// and returns how many it found.
func (f *frontier) pull(c ppm.Ctx, j int, d uint64, cur int) uint64 {
	lo, hi := f.leaf(c, j)
	base := lo - lo%f.n // the leaf's row, whose vertex v is combined id base+v
	// The leaf's levels, edited below: a copy, since a Slice is read-only.
	lv := c.Scratch(hi - lo)
	copy(lv, f.level[cur].Slice(c, lo, hi))
	// The unvisited ids and their arc spans. The leaf is one row's vertex
	// range, so it reads its unvisited ids' offsets in place, as one Slice
	// from the first to the last.
	ob, ab := f.cs.bases(c)
	ids := c.Scratch(hi - lo)[:0]
	spans := c.ScratchSpans(hi - lo)[:0]
	if first := slices.Index(lv, inf); first >= 0 {
		last := len(lv) - 1
		for lv[last] != inf {
			last--
		}
		v0 := lo - base + first
		offs := f.cs.offs.Slice(c, ob+v0, ob+v0+last-first+2)
		for k := first; k <= last; k++ {
			if lv[k] == inf {
				ids = append(ids, uint64(lo+k))
				spans = append(spans, [2]int{ab + int(offs[k-first]), ab + int(offs[k-first+1])})
			}
		}
	}
	tgts := f.cs.adj.Gather(c, spans, nil)
	if base > 0 {
		for i := range tgts {
			tgts[i] += uint64(base) // arc target → combined id in the leaf's row
		}
	}
	tl := f.level[cur].GatherAt(c, tgts, nil)
	// found and parents list the ids reached and their parents, for one
	// batched ScatterAt into owner.
	found, parents := c.Scratch(len(ids))[:0], c.Scratch(len(ids))[:0]
	i := 0
	for idx, id := range ids {
		end := i + spans[idx][1] - spans[idx][0]
		for ; i < end; i++ {
			if tl[i] == d-1 {
				lv[id-uint64(lo)] = d
				found = append(found, id)
				parents = append(parents, tgts[i])
				break
			}
		}
		i = end
	}
	f.owner.ScatterAt(c, found, parents)
	f.level[1-cur].SetRange(c, lo, lv)
	return uint64(len(found))
}

// finish records the end of a search in its end round d: the entries swept,
// and the level buffer holding the levels with d, which rounds reads back,
// in one word.
func (f *frontier) finish(c ppm.Ctx, seen, cur, d uint64) {
	f.done.Set(c, 0, seen)
	f.done.Set(c, 1, cur|d<<1)
}

// levels copies combined ids [lo, hi) of the last search's levels out of
// the buffer its last round recorded.
func (f *frontier) levels(lo, hi int) []uint64 {
	return f.level[f.done.Snapshot()[1]&1].SnapshotRange(lo, hi)
}

// rounds is the number of rounds the last search ran before its end round:
// its depth plus one.
func (f *frontier) rounds() int { return int(f.done.Snapshot()[1]>>1) - 1 }

// visited is the number of frontier entries the last search swept.
func (f *frontier) visited() uint64 { return f.done.Snapshot()[0] }

// roundKinds reads the round log of the last search, up to its end round.
func (f *frontier) roundKinds() []uint64 {
	log := f.kinds.Snapshot()
	return log[:slices.Index(log, roundEnd)]
}
