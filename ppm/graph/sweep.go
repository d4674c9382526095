package graph

import (
	"math/bits"
	"slices"

	"repro/ppm"
)

// sweep is MultiBFS's second program: one bit-parallel search for all the
// sources of a batch at once (MS-BFS, Then et al.), run as GBBS's dense,
// pull-only edgeMap. Bit s of a vertex's masks stands for batch slot s, and
// each vertex keeps two masks, each ping-ponged between rounds:
//
//	seen  — the slots whose search has reached the vertex
//	front — the slots whose search reached it in the last round
//
// Round d is one root-chain phase and one durable commit, Seq(sweep,
// round'), shaped like a PageRank iteration: a fork-join tree over the
// halves of the leaves of the leaf table (leafTable), each cut at its
// middle vertex, whose leaves leave their counts at their nodes of the
// frontier's sums, as a pull's do, so sums[1] holds the pairs the round
// reached. A leaf does:
//
//	sweep — for its vertices whose seen mask is not full, read their arcs
//	        (adjLive) and fold the front masks of the arcs' targets into one
//	        word per vertex with one FoldAt(FoldOr): the slots at level d-1
//	        next to it. Its bits not in seen are new, and the vertex is at
//	        level d of those searches. The arcs of the vertices with new bits
//	        are read back with one GatherAt, and each new bit takes as its
//	        parent the first arc, in arc order, whose target's front mask
//	        holds it. The leaf writes its range of seen and front of the
//	        other parity, and the level d and parent of each new (slot,
//	        vertex) pair into the rows program's level[0] and owner, at
//	        combined id s·n+v, where Levels, Verify and the serving layer
//	        read every search's result.
//
// A leaf reads seen[p] and front[p] and writes seen[1-p], front[1-p],
// level[0], owner and its node of sums, so it writes nothing it read. A
// pair's level and parent are written by the one leaf of its vertex in the
// one round its bit is new, so a replay writes the same words again
// (Theorem 3.1), and no CAM is needed. The round after the last finds a
// count of 0 and ends the search: a search of depth D runs D+1 sweeps, each
// reading the arcs of every vertex some slot has not reached, so the sweep
// costs O(rounds·(n + arcs)) where the rows program's k searches cost
// O(k·(n + arcs)), and MultiBFS runs it only where the rounds are few
// against k (sweepRounds).
//
// A sweep leaf reads ≈ 2 words per vertex (seen and its offset) and up to
// 3 per arc (the target, its fold and, for a vertex with new bits, its
// read-back), and writes 2 per vertex and 2 per new pair: k enters a leaf's
// words only through the pairs it reaches in one round, at most k per
// vertex. That is why a leaf is half a table leaf: a whole native leaf,
// budgeted at ≈ 2 words per arc, did 6 186–7 013 words at k = 8 on
// Rand(32768, 65536), Rand(16384, 65536) and Rand(32768, 131072), past the
// 5 000 the native fault rate allows (TestCapsuleWorkUnderFaultCeiling).
//
// A batch is Seq(reset(extent), seed(ids...), round(1, 0, 0, full)): reset
// forks the rows program's init with the zeroing of seen[0] and front[0],
// and seed sets each source's level and claimant, as the rows seed does,
// and its mask bits. full is the mask of every slot of the batch.
type sweep struct {
	seen, front        [2]ppm.Array // n words each
	reset, seed, round ppm.FuncRef
}

func newSweep(rt *ppm.Runtime, name string, f *frontier) *sweep {
	n := f.n
	s := &sweep{
		seen:  [2]ppm.Array{rt.NewArray(n), rt.NewArray(n)},
		front: [2]ppm.Array{rt.NewArray(n), rt.NewArray(n)},
	}
	zeroLeaf := rt.Register(name+"/sweep/zero", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		zeros := c.Scratch(hi - lo)
		s.seen[0].SetRange(c, lo, zeros)
		s.front[0].SetRange(c, lo, zeros)
		c.Done()
	})
	zero := rt.Register(name+"/sweep/zeroP", func(c ppm.Ctx) {
		c.ParallelFor(zeroLeaf, 0, n, grainsFor(rt).dense)
	})
	s.reset = rt.Register(name+"/sweep/reset", func(c ppm.Ctx) {
		c.Fork(f.init.Call(c.Int(0)), zero.Call())
	})
	// seed takes the level-0 entries, s·n+src for slot s, as its arguments.
	s.seed = rt.Register(name+"/sweep/seed", func(c ppm.Ctx) {
		ids := c.Scratch(c.NArgs())
		vs, masks := c.Scratch(len(ids))[:0], c.Scratch(len(ids))[:0]
		for i := range ids {
			ids[i] = c.Uint(i)
			v := ids[i] % uint64(n)
			// One word per source vertex: duplicate sources share it.
			if j := slices.Index(vs, v); j >= 0 {
				masks[j] |= 1 << i
			} else {
				vs, masks = append(vs, v), append(masks, 1<<i)
			}
		}
		f.level[0].ScatterAt(c, ids, c.Scratch(len(ids)))
		f.owner.ScatterAt(c, ids, ids)
		s.seen[0].ScatterAt(c, vs, masks)
		s.front[0].ScatterAt(c, vs, masks)
		f.sums.Set(c, 1, uint64(len(ids)))
		c.Done()
	})

	// tree sweeps half-leaves [lo, hi) in round d, reading the masks of
	// parity p: args [node, lo, hi, d, p, full].
	var tree ppm.FuncRef
	tree = rt.Register(name+"/sweep", func(c ppm.Ctx) {
		node, lo, hi := c.Int(0), c.Int(1), c.Int(2)
		d, p, full := c.Uint(3), c.Int(4), c.Uint(5)
		if hi-lo == 1 {
			f.sums.Set(c, node, s.leaf(c, f, lo, d, p, full))
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		c.ForkThen(
			tree.Call(2*node, lo, mid, d, p, full),
			tree.Call(2*node+1, mid, hi, d, p, full),
			f.upCmb.Call(node))
	})
	// round reads the pairs the last round reached off sums[1], as the rows
	// round reads its frontier's size: args [d, p, seen, full], seen the
	// pairs reached so far.
	s.round = rt.Register(name+"/sweep/round", func(c ppm.Ctx) {
		d, p, seen, full := c.Uint(0), c.Int(1), c.Uint(2), c.Uint(3)
		cnt := f.sums.Get(c, 1)
		if cnt == 0 {
			f.kinds.Set(c, int(d-1), roundEnd)
			f.finish(c, seen, 0, d)
			c.Done()
			return
		}
		f.kinds.Set(c, int(d-1), roundSweep)
		c.Seq(
			tree.Call(1, 0, 2*f.cs.leaves.count(), d, p, full),
			s.round.Call(d+1, 1-p, seen+cnt, full))
	})
	return s
}

// leaf sweeps half j%2 of leaf j/2 of the table in round d, reading the
// masks of parity p (see sweep), and returns the number of (slot, vertex)
// pairs it reached.
func (s *sweep) leaf(c ppm.Ctx, f *frontier, j int, d uint64, p int, full uint64) uint64 {
	lo, hi := f.cs.leaves.at(c, j/2)
	if mid := (lo + hi) / 2; j%2 == 0 {
		hi = mid
	} else {
		lo = mid
	}
	if lo == hi { // the first half of a one-vertex leaf
		return 0
	}
	// The leaf's masks, edited below into the next round's: copies, since a
	// Slice is read-only.
	seen := c.Scratch(hi - lo)
	copy(seen, s.seen[p].Slice(c, lo, hi))
	front, live := c.Scratch(hi-lo), c.Scratch(hi-lo)
	nlive := 0
	for i, m := range seen {
		if m != full {
			live[i] = 1
			nlive++
		}
	}
	var ids, parents []uint64
	if nlive > 0 {
		offs, arcs := f.cs.adjLive(c, lo, hi, live)
		lens, near := c.Scratch(nlive), c.Scratch(nlive)
		k := 0
		for i, l := range live {
			if l != 0 {
				lens[k] = offs[i+1] - offs[i]
				k++
			}
		}
		s.front[p].FoldAt(c, ppm.FoldOr, arcs, lens, near)
		// The new bits of each live vertex, kept in near, and the arcs of
		// the vertices that have some, for one read-back.
		pairs, back := 0, c.Scratch(len(arcs))[:0]
		a, k := 0, 0
		for i, l := range live {
			if l == 0 {
				continue
			}
			deg := int(lens[k])
			near[k] &^= seen[i]
			if near[k] != 0 {
				pairs += bits.OnesCount64(near[k])
				back = append(back, arcs[a:a+deg]...)
			}
			a, k = a+deg, k+1
		}
		masks := s.front[p].GatherAt(c, back, nil)
		ids, parents = c.Scratch(pairs)[:0], c.Scratch(pairs)[:0]
		a, k = 0, 0
		m := 0
		for i, l := range live {
			if l == 0 {
				continue
			}
			nb, deg := near[k], int(lens[k])
			k++
			if nb == 0 {
				a += deg
				continue
			}
			seen[i] |= nb
			front[i] = nb
			v := uint64(lo + i)
			for t := 0; nb != 0; t++ {
				hit := masks[m+t] & nb
				nb &^= hit
				for ; hit != 0; hit &= hit - 1 {
					row := uint64(bits.TrailingZeros64(hit)) * uint64(f.n)
					ids = append(ids, row+v)
					parents = append(parents, row+arcs[a+t])
				}
			}
			a, m = a+deg, m+deg
		}
	}
	s.seen[1-p].SetRange(c, lo, seen)
	s.front[1-p].SetRange(c, lo, front)
	if len(ids) > 0 {
		f.level[0].ScatterAt(c, ids, fillVec(c, len(ids), d))
		f.owner.ScatterAt(c, ids, parents)
	}
	return uint64(len(ids))
}
