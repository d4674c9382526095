package ppm

import (
	"fmt"
	"slices"
	"sort"
)

// This file holds the Section 7 workloads written purely against Ctx and
// Array — no simulated-machine closures — which is what lets one
// implementation run unchanged on the model engine (with block-transfer
// cost accounting and fault injection) and on the native engine (real
// goroutines at hardware speed). Each Verify compares against a plain
// sequential reference at the bottom of the file that shares no code with
// the capsules it checks. section7_test.go checks Theorems 7.1–7.4 on these
// implementations.
//
// Every capsule below is write-after-read conflict free: anything a capsule
// writes lives in an array disjoint from everything it read, so replay
// after a soft fault is idempotent (Theorem 3.1). Multi-phase algorithms
// chain phases with Ctx.Seq and never sort or accumulate in place — an
// in-place rewrite interrupted mid-write would feed its own half-written
// output to the replay.

// ---- per-engine leaf sizes ----

// s7Grains is one engine's Section 7 leaf sizes, in elements. A capsule may
// be replayed, so f < 1/(2C) must hold for the largest capsule work C, and
// each engine counts C in its own unit.
//
// The model engine charges block transfers, and the paper sizes the leaves
// by B: a prefix-sum leaf of B elements is O(1) transfers (Theorem 7.1's
// O(n/B) work), and a merge leaf of 8·B is a handful.
//
// The native engine counts words and pays 26–38 ns per spawn and join
// (native.spawn_join_ns on a 2-core box) against about a nanosecond per word
// of a leaf's loop, so a leaf of B = 8 words is nearly all scheduling. Its
// prefix-sum leaf of 512 elements does C = 1 024 word accesses in a down
// sweep and its merge leaf of 1 024 does C = 2 048, the same as merge sort's
// leaves at M = 1 024: 2fC ≤ 0.41 at the f = 1e-4 native tests use.
//
// Both are constants, not measurements, so the capsule counters are exact
// and do not depend on the machine.
type s7Grains struct {
	psum  int // prefix-sum leaf (PrefixSum, RegisterPrefixSum, sample sort's offsets)
	merge int // Merge leaf
}

// s7GrainsFor returns the leaf sizes of the engine rt runs on.
func s7GrainsFor(rt *Runtime) s7Grains {
	if rt.Engine() == EngineNative {
		return s7Grains{psum: 512, merge: 1024}
	}
	b := rt.BlockWords()
	return s7Grains{psum: b, merge: 8 * b}
}

// ---- shared prefix-sum tree ----

// buildPrefixTree registers an inclusive prefix sum over src into dst (both
// length n) under the given name prefix and returns its root: the classic
// up-sweep/down-sweep tree with sequential leaves of leaf elements (0 selects
// the engine's grain: the block size B on the model engine, the work-optimal
// choice, and 512 on the native engine). Per-node partial sums live in a
// block-spaced array so concurrent writes never share a block.
func buildPrefixTree(rt *Runtime, name string, n, leaf int, src, dst Array) FuncRef {
	if leaf <= 0 {
		leaf = s7GrainsFor(rt).psum
	}
	sums := rt.NewBlockArray(4 * (n/leaf + 2))

	upCmb := rt.Register(name+"/upcmb", func(c Ctx) {
		node := c.Int(0)
		l := sums.Get(c, 2*node)
		r := sums.Get(c, 2*node+1)
		sums.Set(c, node, l+r)
		c.Done()
	})
	var up FuncRef
	up = rt.Register(name+"/up", func(c Ctx) {
		node, lo, hi := c.Int(0), c.Int(1), c.Int(2)
		if hi-lo <= leaf {
			var acc uint64
			for _, v := range src.Slice(c, lo, hi) {
				acc += v
			}
			sums.Set(c, node, acc)
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		c.ForkThen(
			up.Call(2*node, lo, mid),
			up.Call(2*node+1, mid, hi),
			upCmb.Call(node))
	})
	var down FuncRef
	down = rt.Register(name+"/down", func(c Ctx) {
		node, lo, hi, t := c.Int(0), c.Int(1), c.Int(2), c.Uint(3)
		if hi-lo <= leaf {
			vals := c.Scratch(hi - lo)
			acc := t
			for i, v := range src.Slice(c, lo, hi) {
				acc += v
				vals[i] = acc
			}
			dst.SetRange(c, lo, vals)
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		lsum := sums.Get(c, 2*node)
		c.Fork(
			down.Call(2*node, lo, mid, t),
			down.Call(2*node+1, mid, hi, t+lsum))
	})
	return rt.Register(name+"/root", func(c Ctx) {
		c.Seq(up.Call(1, 0, n), down.Call(1, 0, n, 0))
	})
}

// RegisterPrefixSum registers an inclusive prefix sum over src into dst
// (both length n) under the given name prefix and returns its root call.
// leaf is the sequential base-case size (0 selects the engine's grain: B on
// the model engine, the work-optimal choice, and 512 on the native engine).
// This is the building block subsystems reach for when they need a parallel
// scan inside a larger program — the graph package's mutation batches turn
// next-epoch degrees into CSR offsets with it.
func RegisterPrefixSum(rt *Runtime, name string, n, leaf int, src, dst Array) FuncRef {
	return buildPrefixTree(rt, name, n, leaf, src, dst)
}

// ---- prefix sum (Theorem 7.1) ----

type prefixSumAlgo struct {
	tag  string
	leaf int
	in   []uint64

	rt   *Runtime
	out  Array
	root FuncRef
}

// PrefixSum builds a Theorem 7.1 inclusive prefix sum over input. leaf is
// the sequential base-case size; 0 selects the engine's grain (the
// work-optimal block size B on the model engine, 512 on the native engine).
func PrefixSum(tag string, input []uint64, leaf int) Algorithm {
	return &prefixSumAlgo{tag: tag, leaf: leaf, in: input}
}

func (a *prefixSumAlgo) Name() string { return "prefixsum/" + a.tag }

func (a *prefixSumAlgo) Build(rt *Runtime) {
	n := len(a.in)
	a.rt = rt
	in := rt.NewArray(n)
	in.Load(a.in)
	a.out = rt.NewArray(n)
	a.root = buildPrefixTree(rt, "ppm/prefixsum/"+a.tag, n, a.leaf, in, a.out)
}

func (a *prefixSumAlgo) Run() bool        { return a.rt.Run(a.root) }
func (a *prefixSumAlgo) Output() []uint64 { return a.out.Snapshot() }
func (a *prefixSumAlgo) Verify() error {
	return verifyWords(a.Name(), a.Output(), prefixSumRef(a.in))
}

// ---- merge (Theorem 7.2) ----

// seqMerge merges two sorted slices into ephemeral memory (capsule-local,
// free on the model; a native hot path, so indexed writes and tail copies
// instead of appends). It fills out from both ends at once: each iteration
// writes the smaller head at the front (ties take from a) and the larger
// tail at the back (ties take from b), two independent compare-and-select
// chains instead of one. Both steps are branch-free, so random keys cost no
// mispredicted branch. The back step stays exact when the front step has
// just emptied one input: the word it reads there was the front's pick, no
// larger than anything left, so the tie rule sends the back to the other
// input. While both inputs are non-empty at least two slots are left, so
// the ends never write the same one; once an input runs out, what is left
// is the other's middle, copied as is.
func seqMerge(c Ctx, a, b []uint64) []uint64 {
	out := c.Scratch(len(a) + len(b))
	i, j, lo := 0, 0, 0
	ie, je, hi := len(a)-1, len(b)-1, len(out)-1
	for i <= ie && j <= je {
		x, y := a[i], b[j]
		v, di := y, 0
		if x <= y {
			v, di = x, 1
		}
		out[lo] = v
		i += di
		j += 1 - di
		lo++

		x, y = a[ie], b[je]
		v, dj := x, 0
		if y >= x {
			v, dj = y, 1
		}
		out[hi] = v
		je -= dj
		ie -= 1 - dj
		hi--
	}
	n := copy(out[lo:], a[i:ie+1])
	copy(out[lo+n:], b[j:je+1])
	return out
}

// radixSort returns vals' keys sorted: the leaf sort of both Theorem 7.3
// sorts. It is an LSD radix sort on bytes whose count table and buffers live
// in ephemeral memory (c.Scratch, 256 + 2n words), so it moves no persistent
// word: a leaf's work and block counts are its Slice and SetRange alone. One
// AND/OR pass finds the byte positions where the keys differ, and only those
// get a count pass and a scatter pass, so keys below 2^24 take at most three.
// vals is only read — it may be a Slice, a view of persistent memory on the
// native engine — so the first pass scatters into one scratch buffer and the
// later ones ping-pong between the two. The result is the buffer the last
// pass wrote, or vals itself when no pass was needed (fewer than two keys,
// or all equal); either way the caller stores the returned slice.
func radixSort(c Ctx, vals []uint64) []uint64 {
	if len(vals) < 2 {
		return vals
	}
	and, or := vals[0], vals[0]
	for _, v := range vals {
		and &= v
		or |= v
	}
	diff := and ^ or
	if diff == 0 {
		return vals
	}
	cnt := c.Scratch(256)
	buf := c.Scratch(2 * len(vals))
	src, dst, spare := vals, buf[:len(vals)], buf[len(vals):]
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue // every key has the same byte here
		}
		clear(cnt)
		for _, v := range src {
			cnt[(v>>shift)&0xff]++
		}
		var sum uint64
		for b, k := range cnt {
			cnt[b] = sum
			sum += k
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[cnt[b]] = v
			cnt[b]++
		}
		src, dst, spare = dst, spare, dst
	}
	return src
}

// registerMergeNode registers the recursive dual-binary-search merge of
// srcA[alo,ahi) and srcB[blo,bhi) into dst at olo. Splitting the larger
// side at its midpoint and binary-searching the pivot in the other keeps
// every level balanced and every capsule's work O(leaf/B + log n).
func registerMergeNode(rt *Runtime, name string, srcA, srcB, dst Array, leaf int) FuncRef {
	var node FuncRef
	node = rt.Register(name, func(c Ctx) {
		alo, ahi, blo, bhi, olo := c.Int(0), c.Int(1), c.Int(2), c.Int(3), c.Int(4)
		if (ahi-alo)+(bhi-blo) <= leaf {
			merged := seqMerge(c, srcA.Slice(c, alo, ahi), srcB.Slice(c, blo, bhi))
			dst.SetRange(c, olo, merged)
			c.Done()
			return
		}
		var amid, bmid int
		if ahi-alo >= bhi-blo {
			amid = (alo + ahi) / 2
			pivot := srcA.Get(c, amid)
			// First B index with value >= pivot.
			bmid = blo + sort.Search(bhi-blo, func(i int) bool {
				return srcB.Get(c, blo+i) >= pivot
			})
		} else {
			bmid = (blo + bhi) / 2
			pivot := srcB.Get(c, bmid)
			// First A index with value > pivot.
			amid = alo + sort.Search(ahi-alo, func(i int) bool {
				return srcA.Get(c, alo+i) > pivot
			})
		}
		c.Fork(
			node.Call(alo, amid, blo, bmid, olo),
			node.Call(amid, ahi, bmid, bhi, olo+(amid-alo)+(bmid-blo)))
	})
	return node
}

type mergeAlgo struct {
	tag  string
	a, b []uint64

	rt   *Runtime
	out  Array
	node FuncRef
}

// Merge builds a Theorem 7.2 parallel merge of two sorted inputs.
func Merge(tag string, a, b []uint64) Algorithm {
	return &mergeAlgo{tag: tag, a: a, b: b}
}

func (m *mergeAlgo) Name() string { return "merge/" + m.tag }

func (m *mergeAlgo) Build(rt *Runtime) {
	m.rt = rt
	A := rt.NewArray(len(m.a))
	A.Load(m.a)
	B := rt.NewArray(len(m.b))
	B.Load(m.b)
	m.out = rt.NewArray(len(m.a) + len(m.b))
	m.node = registerMergeNode(rt, "ppm/merge/"+m.tag+"/node",
		A, B, m.out, s7GrainsFor(rt).merge)
}

func (m *mergeAlgo) Run() bool {
	return m.rt.Run(m.node, 0, len(m.a), 0, len(m.b), 0)
}
func (m *mergeAlgo) Output() []uint64 { return m.out.Snapshot() }
func (m *mergeAlgo) Verify() error {
	return verifyWords(m.Name(), m.Output(), mergeRef(m.a, m.b))
}

// ---- sorts (Theorem 7.3) ----

type sortAlgo struct {
	tag    string
	sample bool
	mWords int
	in     []uint64

	rt  *Runtime
	out Array
	run func() bool
}

// MergeSort builds the baseline parallel merge sort; mWords is the
// ephemeral-memory budget M: sequential base cases sort M elements and the
// merge tree above them contributes the Theorem 7.3 log(n/M) work factor.
func MergeSort(tag string, input []uint64, mWords int) Algorithm {
	return &sortAlgo{tag: tag, sample: false, mWords: mWords, in: input}
}

// SampleSort builds the Theorem 7.3 work-optimal sample sort; mWords is the
// ephemeral-memory budget M (work-optimality needs M > B² and n ≤ M²/B).
func SampleSort(tag string, input []uint64, mWords int) Algorithm {
	return &sortAlgo{tag: tag, sample: true, mWords: mWords, in: input}
}

func (s *sortAlgo) Name() string {
	if s.sample {
		return "samplesort/" + s.tag
	}
	return "mergesort/" + s.tag
}

func (s *sortAlgo) Build(rt *Runtime) {
	s.rt = rt
	if s.sample {
		s.buildSample(rt)
	} else {
		s.buildMerge(rt)
	}
}

func (s *sortAlgo) Run() bool        { return s.run() }
func (s *sortAlgo) Output() []uint64 { return s.out.Snapshot() }
func (s *sortAlgo) Verify() error {
	return verifyWords(s.Name(), s.Output(), sortRef(s.in))
}

// buildMerge: recursive merge sort over ping-pong buffers. Every level
// reads one buffer and writes the other, so no capsule ever rewrites data
// it read — leaves sort in capsule-local memory and write out of place.
func (s *sortAlgo) buildMerge(rt *Runtime) {
	n := len(s.in)
	name := "ppm/mergesort/" + s.tag
	leaf := s.mWords
	if leaf <= 0 {
		leaf = 1024
	}
	in := rt.NewArray(n)
	in.Load(s.in)
	s.out = rt.NewArray(n)
	buf := rt.NewArray(n)
	arr := [2]Array{s.out, buf}

	// mgNode selected by dst: reads arr[1-dst], writes arr[dst].
	mg := [2]FuncRef{
		registerMergeNode(rt, name+"/merge0", buf, buf, s.out, leaf),
		registerMergeNode(rt, name+"/merge1", s.out, s.out, buf, leaf),
	}
	mgDispatch := rt.Register(name+"/mgroot", func(c Ctx) {
		lo, mid, hi, dst := c.Int(0), c.Int(1), c.Int(2), c.Int(3)
		c.Then(mg[dst].Call(lo, mid, mid, hi, lo))
	})
	var ms FuncRef
	ms = rt.Register(name+"/sort", func(c Ctx) {
		lo, hi, dst := c.Int(0), c.Int(1), c.Int(2)
		if hi-lo <= leaf {
			arr[dst].SetRange(c, lo, radixSort(c, in.Slice(c, lo, hi)))
			c.Done()
			return
		}
		mid := (lo + hi) / 2
		c.ForkThen(
			ms.Call(lo, mid, 1-dst),
			ms.Call(mid, hi, 1-dst),
			mgDispatch.Call(lo, mid, hi, dst))
	})
	s.run = func() bool { return rt.Run(ms, 0, n, 0) }
}

// buildSample: the paper's one-level sample sort as a seven-phase chain —
// sort chunks of M, sample each sorted chunk, select splitters, count per
// (bucket, chunk), prefix-sum the counts into offsets, scatter, and sort
// each bucket out of place. With k ≈ n/M buckets the count matrix holds
// (n/M)² entries, which is O(n/B) exactly when n ≤ M²/B — the Theorem 7.3
// precondition.
func (s *sortAlgo) buildSample(rt *Runtime) {
	const oversample = 8
	n := len(s.in)
	name := "ppm/samplesort/" + s.tag
	m := s.mWords
	if m <= 0 {
		m = 1024
	}
	chunks := (n + m - 1) / m
	k := chunks // buckets

	in := rt.NewArray(n) // later reused as the scatter staging area
	in.Load(s.in)
	parts := rt.NewArray(n) // sorted chunks
	s.out = rt.NewArray(n)
	samp := rt.NewArray(chunks * oversample)
	splitters := rt.NewArray(max(1, k-1))
	counts := rt.NewArray(chunks * k) // index b*chunks + ci
	csum := rt.NewArray(chunks * k)

	chunkRange := func(ci int) (int, int) {
		lo := ci * m
		hi := lo + m
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	// bucketOf is shared by the count and scatter phases so both see the
	// exact same partition of a sorted chunk against the splitters.
	bucketSegments := func(c Ctx, vals, spl []uint64) []uint64 {
		// Returns k+1 fenceposts into vals: bucket b is vals[f[b]:f[b+1]].
		f := c.Scratch(k + 1)
		idx := 0
		for b := 0; b < k-1; b++ {
			for idx < len(vals) && vals[idx] < spl[b] {
				idx++
			}
			f[b+1] = uint64(idx)
		}
		f[k] = uint64(len(vals))
		return f
	}

	sortChunk := rt.Register(name+"/sortChunk", func(c Ctx) {
		for ci := c.Int(0); ci < c.Int(1); ci++ {
			lo, hi := chunkRange(ci)
			parts.SetRange(c, lo, radixSort(c, in.Slice(c, lo, hi)))
		}
		c.Done()
	})
	// Sample t of chunk ci sits at relative position (t·chunks+ci+½) /
	// (oversample·chunks) of its chunk: the chunks' positions interleave, so
	// the sorted samples spread over the key range instead of forming
	// oversample clusters (the same positions in every chunk) that put
	// several splitters into each cluster and leave a few buckets many
	// times the mean size.
	sampleChunk := rt.Register(name+"/sample", func(c Ctx) {
		for ci := c.Int(0); ci < c.Int(1); ci++ {
			lo, hi := chunkRange(ci)
			vals := c.Scratch(oversample)
			for t := 0; t < oversample; t++ {
				pos := lo + (2*(t*chunks+ci)+1)*(hi-lo)/(2*oversample*chunks)
				vals[t] = parts.Get(c, pos)
			}
			samp.SetRange(c, ci*oversample, vals)
		}
		c.Done()
	})
	selectSplitters := rt.Register(name+"/splitters", func(c Ctx) {
		if k > 1 {
			all := radixSort(c, samp.Slice(c, 0, samp.Len()))
			spl := c.Scratch(k - 1)
			for j := 1; j < k; j++ {
				spl[j-1] = all[j*len(all)/k]
			}
			splitters.SetRange(c, 0, spl)
		}
		c.Done()
	})
	countChunk := rt.Register(name+"/count", func(c Ctx) {
		for ci := c.Int(0); ci < c.Int(1); ci++ {
			lo, hi := chunkRange(ci)
			spl := splitters.Slice(c, 0, k-1)
			f := bucketSegments(c, parts.Slice(c, lo, hi), spl)
			for b := 0; b < k; b++ {
				counts.Set(c, b*chunks+ci, f[b+1]-f[b])
			}
		}
		c.Done()
	})
	psumRoot := buildPrefixTree(rt, name+"/psum", chunks*k, 0, counts, csum)
	exclusive := func(c Ctx, idx int) int {
		if idx == 0 {
			return 0
		}
		return int(csum.Get(c, idx-1))
	}
	scatterChunk := rt.Register(name+"/scatter", func(c Ctx) {
		for ci := c.Int(0); ci < c.Int(1); ci++ {
			lo, hi := chunkRange(ci)
			spl := splitters.Slice(c, 0, k-1)
			vals := parts.Slice(c, lo, hi)
			f := bucketSegments(c, vals, spl)
			// One batched Scatter per chunk: bucket b's segment
			// vals[f[b]:f[b+1]] lands at its exclusive offset. Spans are
			// disjoint across chunks by construction of the offset matrix.
			spans := c.ScratchSpans(k)[:0]
			for b := 0; b < k; b++ {
				if f[b+1] > f[b] {
					off := exclusive(c, b*chunks+ci)
					spans = append(spans, [2]int{off, off + int(f[b+1]-f[b])})
				}
			}
			in.Scatter(c, spans, vals)
		}
		c.Done()
	})
	sortBucket := rt.Register(name+"/sortBucket", func(c Ctx) {
		for b := c.Int(0); b < c.Int(1); b++ {
			start := exclusive(c, b*chunks)
			end := int(csum.Get(c, (b+1)*chunks-1))
			if start >= end {
				continue
			}
			s.out.SetRange(c, start, radixSort(c, in.Slice(c, start, end)))
		}
		c.Done()
	})

	pfor := func(pname string, body FuncRef, hi int) FuncRef {
		return rt.Register(name+"/"+pname, func(c Ctx) {
			c.ParallelFor(body, 0, hi, 1)
		})
	}
	p1 := pfor("p1", sortChunk, chunks)
	p2 := pfor("p2", sampleChunk, chunks)
	p4 := pfor("p4", countChunk, chunks)
	p6 := pfor("p6", scatterChunk, chunks)
	p7 := pfor("p7", sortBucket, k)
	root := rt.Register(name+"/root", func(c Ctx) {
		c.Seq(p1.Call(), p2.Call(), selectSplitters.Call(), p4.Call(),
			psumRoot.Call(), p6.Call(), p7.Call())
	})
	s.run = func() bool { return rt.Run(root) }
}

// ---- matrix multiply (Theorem 7.4) ----

type matMulAlgo struct {
	tag  string
	dim  int
	base int
	a, b []uint64

	rt   *Runtime
	outC Array
	mm   FuncRef
}

// MatMul builds the Theorem 7.4 recursive matrix multiply of two dim×dim
// matrices (row-major). base is the leaf tile size, playing √M in the
// W = O(n³/(B√M)) bound; dim must be base times a power of two.
func MatMul(tag string, dim, base int, a, b []uint64) Algorithm {
	return &matMulAlgo{tag: tag, dim: dim, base: base, a: a, b: b}
}

func (m *matMulAlgo) Name() string { return "matmul/" + m.tag }

// scratchNeed returns the scratch words a d×d node's subtree requires: the
// eight child products (2d² words) plus the children's own subtrees.
func scratchNeed(d, base int) int {
	if d <= base {
		return 0
	}
	return 2*d*d + 8*scratchNeed(d/2, base)
}

// Packing for the add phase's two ParallelFor extra words.
const (
	mmOffBits  = 40
	mmOffMask  = (1 << mmOffBits) - 1
	mmSelShift = 56
)

func (m *matMulAlgo) Build(rt *Runtime) {
	dim, base := m.dim, m.base
	for d := dim; d > base; d /= 2 {
		if d%2 != 0 {
			panic(fmt.Sprintf("ppm: matmul dim %d must be base %d times a power of two", dim, base))
		}
	}
	m.rt = rt
	name := "ppm/matmul/" + m.tag
	A := rt.NewArray(dim * dim)
	A.Load(m.a)
	B := rt.NewArray(dim * dim)
	B.Load(m.b)
	m.outC = rt.NewArray(dim * dim)
	S := rt.NewArray(max(1, scratchNeed(dim, base)))
	dsts := [2]Array{m.outC, S}

	// addRow sums one row of two child-product tiles into the destination:
	// row index space is [0, 2d) — quadrant q = idx/h, row r = idx%h.
	addRow := rt.Register(name+"/addRow", func(c Ctx) {
		x0, x1 := c.Uint(2), c.Uint(3)
		sbase := int(x0 & mmOffMask)
		d := int((x0 >> mmOffBits) & 0xffff)
		sel := int(x0 >> mmSelShift)
		dstOff := int(x1 & mmOffMask)
		stride := int(x1 >> mmOffBits)
		h := d / 2
		for idx := c.Int(0); idx < c.Int(1); idx++ {
			q, r := idx/h, idx%h
			qr, qc := q>>1, q&1
			row := c.Scratch(h)
			t0 := sbase + 2*q*h*h + r*h
			copy(row, S.Slice(c, t0, t0+h))
			t1 := sbase + (2*q+1)*h*h + r*h
			for i, v := range S.Slice(c, t1, t1+h) {
				row[i] += v
			}
			dsts[sel].SetRange(c, dstOff+(qr*h+r)*stride+qc*h, row)
		}
		c.Done()
	})
	add := rt.Register(name+"/add", func(c Ctx) {
		d, sel := c.Int(0), c.Uint(1)
		dstOff, stride, sbase := c.Uint(2), c.Uint(3), c.Uint(4)
		c.ParallelFor(addRow, 0, 2*d, 1,
			sbase|uint64(d)<<mmOffBits|sel<<mmSelShift,
			dstOff|stride<<mmOffBits)
	})

	// mm multiplies the d×d submatrices of A at (ar,ac) and B at (br,bc)
	// into the destination tile (sel 0 = C, 1 = scratch) at dstOff with the
	// given row stride, using the scratch arena at sbase for its subtree.
	var mm, spawn FuncRef
	mm = rt.Register(name+"/mm", func(c Ctx) {
		ar, ac, br, bc := c.Int(0), c.Int(1), c.Int(2), c.Int(3)
		d, sel := c.Int(4), c.Int(5)
		dstOff, stride, sbase := c.Int(6), c.Int(7), c.Int(8)
		if d <= base {
			av := c.Scratch(d * d)
			bv := c.Scratch(d * d)
			for i := 0; i < d; i++ {
				o := (ar+i)*dim + ac
				copy(av[i*d:], A.Slice(c, o, o+d))
				o = (br+i)*dim + bc
				copy(bv[i*d:], B.Slice(c, o, o+d))
			}
			row := c.Scratch(d)
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					var acc uint64
					for l := 0; l < d; l++ {
						acc += av[i*d+l] * bv[l*d+j]
					}
					row[j] = acc
				}
				dsts[sel].SetRange(c, dstOff+i*stride, row)
			}
			c.Done()
			return
		}
		c.ForkThen(
			spawn.Call(0, 4, ar, ac, br, bc, d, sbase),
			spawn.Call(4, 8, ar, ac, br, bc, d, sbase),
			add.Call(d, sel, dstOff, stride, sbase))
	})
	// spawn fans a node's eight child multiplies out as a binary fork tree.
	// Child t computes A(qr,s)·B(s,qc) into scratch tile t (h×h, packed).
	spawn = rt.Register(name+"/spawn", func(c Ctx) {
		lo, hi := c.Int(0), c.Int(1)
		ar, ac, br, bc := c.Int(2), c.Int(3), c.Int(4), c.Int(5)
		d, sbase := c.Int(6), c.Int(7)
		if hi-lo == 1 {
			t := lo
			q, sTerm := t>>1, t&1
			qr, qc := q>>1, q&1
			h := d / 2
			c.Then(mm.Call(
				ar+qr*h, ac+sTerm*h, br+sTerm*h, bc+qc*h,
				h, 1, sbase+t*h*h, h,
				sbase+2*d*d+t*scratchNeed(h, base)))
			return
		}
		mid := (lo + hi) / 2
		c.Fork(
			spawn.Call(lo, mid, ar, ac, br, bc, d, sbase),
			spawn.Call(mid, hi, ar, ac, br, bc, d, sbase))
	})
	m.mm = mm
}

func (m *matMulAlgo) Run() bool {
	return m.rt.Run(m.mm, 0, 0, 0, 0, m.dim, 0, 0, m.dim, 0)
}
func (m *matMulAlgo) Output() []uint64 { return m.outC.Snapshot() }
func (m *matMulAlgo) Verify() error {
	return verifyWords(m.Name(), m.Output(), matMulRef(m.a, m.b, m.dim))
}

// ---- sequential references ----

func prefixSumRef(in []uint64) []uint64 {
	out := make([]uint64, len(in))
	var acc uint64
	for i, v := range in {
		acc += v
		out[i] = acc
	}
	return out
}

func mergeRef(a, b []uint64) []uint64 { return sortRef(slices.Concat(a, b)) }

func sortRef(in []uint64) []uint64 {
	out := slices.Clone(in)
	slices.Sort(out)
	return out
}

func matMulRef(a, b []uint64, n int) []uint64 {
	c := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				c[i*n+j] += a[i*n+k] * b[k*n+j]
			}
		}
	}
	return c
}
