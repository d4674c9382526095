package graph

import (
	"fmt"

	"repro/ppm"
)

// MultiBFS is a batched breadth-first search: one frontier program explores
// from up to kMax sources simultaneously, giving each source its own copy of
// the vertex space. Source slot s owns the combined ids [s*n, (s+1)*n); a
// frontier entry s*n+v means "vertex v, search s", so the per-round phase
// structure of single-source BFS (claim / flag / scan / scatter / publish)
// carries over unchanged — the claim leaf just maps a combined id back to its
// vertex for the adjacency gather and forward again for the level CAM.
//
// Batching is the serving layer's coalescing primitive: k concurrent BFS
// queries against the same graph share the frontier scans, the prefix-sum
// tree, and the adjacency gathers of one program run instead of paying k
// sequential runs. The batch width is padded to a power of two so each width
// has a pre-registered driver and prefix-sum root (capsule programs are
// closed at Build time; runtime values may only flow through arguments), and
// padded slots carry a sentinel source that seeds nothing — their rows stay
// at INF and contribute zero flags, so padding costs only the dense scans.
//
// Every capsule is WAR-free and ends in one control transfer, same as bfs.go:
// racing claims on level[s*n+w] are resolved by CAM, so replays and
// cross-search races are both harmless.
type MultiBFS struct {
	tag  string
	g    *Graph
	kMax int
	res  *Resident // non-nil: read the epoch-versioned CSR ring

	rt    *ppm.Runtime
	level ppm.Array // kMax*n combined levels, row s = search s
	roots []ppm.FuncRef
	srcs  ppm.Array // kMax source slots, INF = padded
	slotW ppm.Array // staged CSR version slot for the run (0 standalone)

	lastSrcs []int // sources of the last RunBatch, for Verify
}

// NewMultiBFS builds a batched BFS over g with capacity kMax sources per
// batch. kMax is rounded up to a power of two; memory is proportional to
// kMax*n words, so callers pick the smallest capacity their batching needs
// (the serving layer uses its configured max batch width).
func NewMultiBFS(tag string, g *Graph, kMax int) *MultiBFS {
	if kMax < 1 {
		panic("graph: MultiBFS needs kMax >= 1")
	}
	k := 1
	for k < kMax {
		k <<= 1
	}
	return &MultiBFS{tag: tag, g: g, kMax: k}
}

// NewMultiBFSResident builds a batched BFS over a Resident's epoch-versioned
// CSR ring: RunBatchAt binds each run to one version slot, so a batch of
// queries pinned to epoch E reads epoch-E arcs regardless of later committed
// mutation batches (while E stays within the ring).
func NewMultiBFSResident(tag string, res *Resident, kMax int) *MultiBFS {
	a := NewMultiBFS(tag, res.base, kMax)
	a.res = res
	return a
}

// KMax returns the batch capacity (a power of two).
func (a *MultiBFS) KMax() int { return a.kMax }

func (a *MultiBFS) Name() string { return "msbfs/" + a.tag }

// Build loads the graph and registers the batch programs on rt. One set of
// phase capsules is shared by every batch width (the width flows through
// arguments); only the prefix-sum trees and the drivers that reference them
// are registered per width.
func (a *MultiBFS) Build(rt *ppm.Runtime) {
	a.rt = rt
	n := a.g.N
	name := "graph/msbfs/" + a.tag
	a.slotW = rt.NewArray(1)
	cs := bindCSR(rt, a.res, a.g, a.slotW)
	kn := a.kMax * n
	a.level = rt.NewArray(kn)
	a.srcs = rt.NewArray(a.kMax)
	flags := rt.NewArray(kn)
	psum := rt.NewArray(kn)
	front := [2]ppm.Array{rt.NewArray(kn), rt.NewArray(kn)}
	size := rt.NewArray(1)

	// initLeaf resets combined levels [lo, hi) to INF; initP covers the
	// batch extent wn passed as its argument.
	initLeaf := rt.Register(name+"/init", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		a.level.SetRange(c, lo, fillVec(c, hi-lo, inf))
		c.Done()
	})
	initP := rt.Register(name+"/initP", func(c ppm.Ctx) {
		c.ParallelFor(initLeaf, 0, c.Int(0), denseGrain)
	})

	// seed compacts the batch's real sources into frontier 0. A padded slot
	// (sentinel INF) seeds nothing; its whole row stays INF. Sequential over
	// at most kMax slots, so one small capsule.
	seed := rt.Register(name+"/seed", func(c ppm.Ctx) {
		w := c.Int(0)
		cnt := 0
		for s := 0; s < w; s++ {
			src := a.srcs.Get(c, s)
			if src == inf {
				continue
			}
			id := uint64(s*n) + src
			front[0].Set(c, cnt, id)
			a.level.Set(c, int(id), 0)
			cnt++
		}
		size.Set(c, 0, uint64(cnt))
		c.Done()
	})

	// claimLeaf covers frontier slots [lo, hi): args [lo, hi, d, parity].
	// Combined ids map to vertices for the gather and back for the CAM.
	claimLeaf := rt.Register(name+"/claim", func(c ppm.Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		d, parity := c.Uint(2), c.Int(3)
		ids := front[parity].Slice(c, lo, hi)
		vs := c.Scratch(len(ids))
		for i, id := range ids {
			vs[i] = id % uint64(n)
		}
		spans, nbrs := cs.gatherAdj(c, vs)
		i := 0
		for idx, id := range ids {
			base := int(id/uint64(n)) * n
			for j := spans[idx][0]; j < spans[idx][1]; j++ {
				w := int(nbrs[i])
				i++
				c.CAM(a.level.At(base+w), inf, d)
			}
		}
		c.Done()
	})
	claimP := rt.Register(name+"/claimP", func(c ppm.Ctx) {
		cnt := int(size.Get(c, 0))
		c.ParallelFor(claimLeaf, 0, cnt, frontierGrain, c.Uint(0), c.Uint(1))
	})

	flagLeaf := rt.Register(name+"/flag", func(c ppm.Ctx) {
		lo, hi, d := c.Int(0), c.Int(1), c.Uint(2)
		lv := a.level.Slice(c, lo, hi)
		vals := c.Scratch(hi - lo)
		for i, x := range lv {
			if x == d {
				vals[i] = 1
			}
		}
		flags.SetRange(c, lo, vals)
		c.Done()
	})
	flagP := rt.Register(name+"/flagP", func(c ppm.Ctx) {
		c.ParallelFor(flagLeaf, 0, c.Int(0), denseGrain, c.Uint(1))
	})

	scatterLeaf := rt.Register(name+"/scatter", func(c ppm.Ctx) {
		lo, hi, parity := c.Int(0), c.Int(1), c.Int(2)
		fl := flags.Slice(c, lo, hi)
		ps := psum.Slice(c, lo, hi)
		for i, f := range fl {
			if f == 1 {
				front[1-parity].Set(c, int(ps[i])-1, uint64(lo+i))
			}
		}
		c.Done()
	})
	scatterP := rt.Register(name+"/scatterP", func(c ppm.Ctx) {
		c.ParallelFor(scatterLeaf, 0, c.Int(0), denseGrain, c.Uint(1))
	})
	publish := rt.Register(name+"/publish", func(c ppm.Ctx) {
		size.Set(c, 0, psum.Get(c, c.Int(0)-1))
		c.Done()
	})

	// Per-width drivers and roots: the prefix-sum tree's shape is fixed at
	// registration, so each power-of-two batch width gets its own tree over
	// flags[0, wn) and a driver chaining it.
	nWidths := 1
	for 1<<(nWidths-1) < a.kMax {
		nWidths++
	}
	a.roots = make([]ppm.FuncRef, nWidths)
	drivers := make([]ppm.FuncRef, nWidths)
	for wi := 0; wi < nWidths; wi++ {
		w := 1 << wi
		wn := w * n
		psumRoot := ppm.RegisterPrefixSum(rt, fmt.Sprintf("%s/psum%d", name, w), wn, psumLeaf, flags, psum)
		drivers[wi] = rt.Register(fmt.Sprintf("%s/round%d", name, w), func(c ppm.Ctx) {
			d, parity := c.Uint(0), c.Int(1)
			if size.Get(c, 0) == 0 {
				c.Done()
				return
			}
			c.Seq(
				claimP.Call(d, parity),
				flagP.Call(wn, d),
				psumRoot.Call(),
				scatterP.Call(wn, parity),
				publish.Call(wn),
				drivers[wi].Call(d+1, 1-parity),
			)
		})
		a.roots[wi] = rt.Register(fmt.Sprintf("%s/root%d", name, w), func(c ppm.Ctx) {
			c.Seq(initP.Call(wn), seed.Call(w), drivers[wi].Call(1, 0))
		})
	}
}

// RunBatch executes one batched BFS from sources (at most KMax, each a valid
// vertex; duplicates allowed — each occupies its own slot). The batch runs at
// the smallest power-of-two width covering len(sources). It propagates the
// runtime's lifecycle errors (ppm.ErrRuntimeBusy, ppm.ErrRuntimeClosed), so a
// serving layer serializes batches with its own queue and treats Busy as a
// scheduling bug rather than a panic.
func (a *MultiBFS) RunBatch(sources []int) (bool, error) {
	slot := 0
	if a.res != nil {
		slot, _ = a.res.SlotFor(a.res.Epoch())
	}
	return a.RunBatchAt(sources, slot)
}

// RunBatchAt is RunBatch bound to one CSR version slot: the whole batch
// reads that slot's arcs. Callers group queries by pinned epoch and map each
// group's epoch to its slot with Resident.SlotFor. Standalone (non-resident)
// programs use slot 0.
func (a *MultiBFS) RunBatchAt(sources []int, slot int) (bool, error) {
	if len(sources) == 0 {
		return true, nil
	}
	if len(sources) > a.kMax {
		return false, fmt.Errorf("graph: MultiBFS batch of %d exceeds capacity %d", len(sources), a.kMax)
	}
	if a.rt.Closed() {
		// Checked before staging: Load into a released region panics.
		return false, ppm.ErrRuntimeClosed
	}
	wi := 0
	for 1<<wi < len(sources) {
		wi++
	}
	vals := make([]uint64, a.kMax)
	for i := range vals {
		vals[i] = inf
	}
	for i, s := range sources {
		if s < 0 || s >= a.g.N {
			return false, fmt.Errorf("graph: MultiBFS source %d out of range for n=%d", s, a.g.N)
		}
		vals[i] = uint64(s)
	}
	a.srcs.Load(vals)
	a.slotW.Load([]uint64{uint64(slot)})
	ok, err := a.rt.TryRun(a.roots[wi])
	if err != nil {
		return false, err
	}
	a.lastSrcs = append(a.lastSrcs[:0], sources...)
	return ok, nil
}

// Levels returns the level of every vertex for batch slot i of the last
// RunBatch (INF for unreachable vertices), copied out of the combined array.
func (a *MultiBFS) Levels(i int) []uint64 {
	if i < 0 || i >= len(a.lastSrcs) {
		panic(fmt.Sprintf("graph: MultiBFS slot %d out of range for batch of %d", i, len(a.lastSrcs)))
	}
	n := a.g.N
	return a.level.SnapshotRange(i*n, (i+1)*n)
}

// Verify checks every slot of the last batch against a sequential BFS.
func (a *MultiBFS) Verify() error {
	for i, src := range a.lastSrcs {
		want := bfsReference(a.g, src)
		got := a.Levels(i)
		for v := range want {
			if got[v] != want[v] {
				return fmt.Errorf("%s: slot %d (src %d): level[%d] = %d, want %d",
					a.Name(), i, src, v, got[v], want[v])
			}
		}
	}
	return nil
}
