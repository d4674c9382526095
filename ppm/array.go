package ppm

import "repro/internal/native"

// Array is a typed view of a region of persistent memory: n elements of one
// word each, element i at At(i). It replaces manual base-plus-offset address
// arithmetic in programs. Load and Snapshot are harness-side (zero-cost)
// bulk accessors for staging inputs and reading results; Get, Set, Slice,
// and SetRange are the capsule-side accessors, charged block transfers on
// the model engine like any other persistent access.
type Array struct {
	rt     *Runtime
	base   Addr
	n      int
	stride int // words between consecutive elements
}

// NewArray allocates a block-aligned persistent array of n words from the
// shared heap at setup time.
func (r *Runtime) NewArray(n int) Array {
	return Array{rt: r, base: r.eng.heapAllocBlocks(n), n: n, stride: 1}
}

// NewBlockArray allocates n elements spaced one block apart, so writes to
// distinct elements land in distinct blocks. Use it for per-processor result
// slots and other words written concurrently: write-after-read conflicts are
// block-granular in the model.
func (r *Runtime) NewBlockArray(n int) Array {
	b := r.BlockWords()
	return Array{rt: r, base: r.eng.heapAllocBlocks(n * b), n: n, stride: b}
}

// Len returns the number of elements.
func (a Array) Len() int { return a.n }

// At returns the address of element i.
func (a Array) At(i int) Addr {
	if i < 0 || i >= a.n {
		panic("ppm: array index out of range")
	}
	return a.base + Addr(i*a.stride)
}

// Load bulk-writes vals into the array at setup time (harness-side, free).
func (a Array) Load(vals []uint64) {
	if len(vals) != a.n {
		panic("ppm: Load length mismatch")
	}
	a.loadAt(0, vals)
}

// LoadAt bulk-writes vals into elements [lo, lo+len(vals)) at setup time
// (harness-side, free) — the staging path for arrays whose live prefix
// varies run to run (version-ring slots, mutation deltas).
func (a Array) LoadAt(lo int, vals []uint64) {
	if lo < 0 || lo+len(vals) > a.n {
		panic("ppm: LoadAt out of range")
	}
	a.loadAt(lo, vals)
}

// loadAt stages vals at element lo: one bulk engine call for a word-packed
// array, one per element for a block-spaced one.
func (a Array) loadAt(lo int, vals []uint64) {
	if a.stride == 1 {
		a.rt.eng.memWriteRange(a.base+Addr(lo), vals)
		return
	}
	for i := range vals {
		a.rt.eng.memWriteRange(a.At(lo+i), vals[i:i+1])
	}
}

// Snapshot copies the array out of persistent memory (harness-side, free).
func (a Array) Snapshot() []uint64 {
	return a.SnapshotRange(0, a.n)
}

// SnapshotRange copies elements [lo, hi) out of persistent memory
// (harness-side, free) — the row-extraction path for batched outputs, where
// one logical result per query lives in a slice of a wider array.
func (a Array) SnapshotRange(lo, hi int) []uint64 {
	if lo < 0 || hi > a.n || lo > hi {
		panic("ppm: SnapshotRange out of range")
	}
	out := make([]uint64, hi-lo)
	if a.stride == 1 {
		a.rt.eng.memReadRange(a.base+Addr(lo), out)
		return out
	}
	for i := range out {
		a.rt.eng.memReadRange(a.At(lo+i), out[i:i+1])
	}
	return out
}

// Get reads element i from capsule code (one block transfer on the model
// engine).
func (a Array) Get(c Ctx, i int) uint64 { return c.e.Read(a.At(i)) }

// Set writes element i from capsule code (one transfer).
func (a Array) Set(c Ctx, i int, v uint64) { c.e.Write(a.At(i), v) }

// Slice returns elements [lo, hi) for reading — the bulk read path of leaf
// sorts, merges and scan leaves. The model engine charges one block transfer
// per touched block and copies into a capsule-local slice; on the native
// engine it is a window onto persistent memory itself, so no word moves: the
// bounds check, fault draw and word count are taken at the call, as for a
// copy. The result is read-only — on the native engine a write through it
// (an index assignment, a copy, clear or in-place sort into it, an append
// onto a sub-slice of it) would be an uncounted, unfaulted persistent write;
// copy it into Scratch to edit it. It is valid until this capsule's control
// transfer and must not be kept in host state. Only for word-packed arrays
// (NewArray, Alloc).
func (a Array) Slice(c Ctx, lo, hi int) []uint64 {
	a.needPacked()
	if lo < 0 || hi > a.n || lo > hi {
		panic("ppm: array range out of range")
	}
	return c.e.Slice(a.base, lo, hi)
}

// Gather reads k ranges {[lo, hi)} in one batched operation, appending their
// elements to dst in span order and returning the extended slice. Pass nil
// to take the buffer from ephemeral memory — valid until this capsule's
// control transfer; lost on fault, like the paper's ephemeral memory — or
// reuse a buffer of the capsule's own across calls (never a Slice result,
// which an append would write through). On the model engine the k spans are
// issued as a single round of block transfers — each touched block costs
// one transfer, exactly like k separate Slices, but as one logical
// operation; on the native engine the batch is paid once, not per span: one
// check of the spans against the array, one fault draw for the batch total,
// one counter update, then one copy loop that moves short spans inline.
// This is the edge-read primitive of the graph workloads: a frontier leaf
// gathers the adjacency lists of all its vertices in one call. Only for
// word-packed arrays.
func (a Array) Gather(c Ctx, spans [][2]int, dst []uint64) []uint64 {
	a.needPacked()
	out, ok := c.e.Gather(a.base, a.n, spans, dst)
	if !ok {
		panic("ppm: Gather span out of range")
	}
	return out
}

// GatherAt reads the elements at the given indices in one batched
// operation, appending a[idx[0]], a[idx[1]], … to dst and returning the
// extended slice; a nil dst comes from ephemeral memory, with Gather's
// lifetime. Indices may repeat and need no order. It is the scattered-read
// primitive of the graph kernels: a BFS leaf reads the claimant words or
// levels of its arc targets back, and cc's scan the labels of its vertices'
// labels (a leaf that only reduces the words it reads uses FoldAt). The
// model engine charges one block transfer per index — what Gather
// charges the same batch written as one-word spans; the native engine runs
// one bounds-checked indexed loop. Only for word-packed arrays.
func (a Array) GatherAt(c Ctx, idx []uint64, dst []uint64) []uint64 {
	a.needPacked()
	out, ok := c.e.GatherAt(a.base, a.n, idx, dst)
	if !ok {
		panic("ppm: GatherAt index out of range")
	}
	return out
}

// Fold names the reduction FoldAt applies to each segment.
type Fold = native.Fold

// The folds of FoldAt.
const (
	FoldMin = native.FoldMin // uint64 minimum
	FoldSum = native.FoldSum // float64 addition on the words' bit patterns, in index order
	FoldOr  = native.FoldOr  // uint64 bitwise or
)

// FoldAt reduces the elements at the given indices into acc in one batched
// operation, with no buffer for the words it reads: segment s covers the
// next lens[s] entries of idx, and for each index i of it, in order,
// acc[s] = op(acc[s], a[i]). The lens must sum to len(idx) and acc must hold
// one accumulator per segment; an empty segment leaves its accumulator as it
// is. It is the reduce form of GatherAt: a scan leaf folds every arc
// target's label or contribution into its vertex's minimum or sum, and a
// MultiBFS sweep leaf its arc targets' source masks into their union. It is
// charged exactly as GatherAt(c, idx, …) on both engines — one block
// transfer per index on the model, one batched read natively. A FoldSum is
// added in index order, so its result is bit-exact against the sequential
// loop; FoldMin's and FoldOr's do not depend on order. Only for word-packed
// arrays.
func (a Array) FoldAt(c Ctx, op Fold, idx, lens, acc []uint64) {
	a.needPacked()
	if op != FoldMin && op != FoldSum && op != FoldOr {
		panic("ppm: FoldAt unknown fold")
	}
	rest := uint64(len(idx))
	for _, l := range lens {
		if l > rest {
			panic("ppm: FoldAt length mismatch")
		}
		rest -= l
	}
	if rest != 0 || len(acc) != len(lens) {
		panic("ppm: FoldAt length mismatch")
	}
	if !c.e.FoldAt(a.base, a.n, op, idx, lens, acc) {
		panic("ppm: FoldAt index out of range")
	}
}

// CAMAt compare-and-modifies the elements at the given indices in one
// batched operation: for every k, a[idx[k]] becomes vals[k] if it still
// holds old, in index order, so among duplicate indices the first claim
// wins. Like CAM it reports no outcome; read the words back (GatherAt) in a
// later phase or after a join. The model engine charges one CAM per index,
// each a fault point — exactly the loop it replaces; the native engine
// checks the array once, draws one fault for the batch and counts once, then
// tests each word before its CAS. It is the claim primitive of the BFS
// frontier: a leaf claims every arc target of its entries in one call.
// len(vals) must equal len(idx). Only for word-packed arrays.
func (a Array) CAMAt(c Ctx, idx []uint64, old uint64, vals []uint64) {
	a.needPacked()
	if len(vals) != len(idx) {
		panic("ppm: CAMAt length mismatch")
	}
	if !c.e.CAMAt(a.base, a.n, idx, old, vals) {
		panic("ppm: CAMAt index out of range")
	}
}

// ScatterAt writes vals[k] to element idx[k] for every k in one batched
// operation — the indexed mirror of Scatter. A repeated index takes its
// last value, as in the loop; like Scatter's spans, the elements must be
// written by no concurrent capsule. The model engine charges one Write per
// index, each a fault point — exactly the loop of Sets it replaces; the
// native engine checks the array once, draws one fault for the batch,
// counts once and stores with plain stores, as the bulk writes do.
// len(vals) must equal len(idx). Only for word-packed arrays.
func (a Array) ScatterAt(c Ctx, idx []uint64, vals []uint64) {
	a.needPacked()
	if len(vals) != len(idx) {
		panic("ppm: ScatterAt length mismatch")
	}
	if !c.e.ScatterAt(a.base, a.n, idx, vals) {
		panic("ppm: ScatterAt index out of range")
	}
}

// Scatter writes consecutive elements of src over k ranges {[lo, hi)} in
// one batched operation: span 0 receives src[0:hi0-lo0], span 1 the next
// hi1-lo1 elements, and so on — the write-side mirror of Gather. len(src)
// must equal the total span length, and spans must be disjoint (concurrent
// capsules scattering into overlapping ranges is a data race, exactly as
// with SetRange). Every span is checked before any word is written; then
// each non-empty span is written, and charged on either engine, exactly as
// SetRange writes it. This is the bucket-scatter primitive of samplesort: a
// chunk writes all its bucket segments in one call. Only for word-packed
// arrays.
func (a Array) Scatter(c Ctx, spans [][2]int, src []uint64) {
	a.needPacked()
	need := 0
	for _, s := range spans {
		if s[0] < 0 || s[1] > a.n || s[0] > s[1] {
			panic("ppm: Scatter span out of range")
		}
		need += s[1] - s[0]
	}
	if need != len(src) {
		panic("ppm: Scatter length mismatch")
	}
	for _, s := range spans {
		if k := s[1] - s[0]; k > 0 {
			c.e.WriteRange(a.base, s[0], s[1], src[:k])
			src = src[k:]
		}
	}
}

// SetRange writes vals over elements [lo, lo+len(vals)): full blocks by
// block transfer, boundary words individually, so concurrent capsules
// sharing a boundary block never overwrite each other. Only for word-packed
// arrays.
func (a Array) SetRange(c Ctx, lo int, vals []uint64) {
	a.needPacked()
	if lo < 0 || lo+len(vals) > a.n {
		panic("ppm: SetRange out of range")
	}
	c.e.WriteRange(a.base, lo, lo+len(vals), vals)
}

func (a Array) needPacked() {
	if a.stride != 1 {
		panic("ppm: bulk accessors require a word-packed array")
	}
}
