// Package blockio provides the block-granular range I/O behind the model
// engine's range accessors (Slice and Gather read through ReadRange;
// SetRange, and Scatter span by span, write through WriteRange).
//
// Algorithm leaves operate on arbitrary sub-ranges [lo, hi) of block-aligned
// arrays. Reading is easy — whole-block reads are always safe. Writing must
// be careful at the boundaries: a leaf that writes a whole block it only
// partially owns would clobber a neighbouring leaf's words (a data race that
// also breaks idempotence). WriteRange therefore writes fully-owned blocks
// with single block transfers and boundary words individually, costing at
// most two extra transfers per boundary — constant per leaf.
package blockio

import (
	"repro/internal/capsule"
	"repro/internal/pmem"
)

// ReadRange streams base[lo,hi) (word indices relative to base) through fn
// using one block transfer per touched block. base must be block-aligned.
func ReadRange(e capsule.Env, b int, base pmem.Addr, lo, hi int, fn func(idx int, v uint64)) {
	if lo >= hi {
		return
	}
	buf := make([]uint64, b)
	for w := lo; w < hi; {
		blkBase := e.ReadBlock(base+pmem.Addr(w), buf)
		start := int(base) + w - int(blkBase)
		for j := start; j < b && w < hi; j++ {
			fn(w, buf[j])
			w++
		}
	}
}

// WriteRange writes vals to base[lo,hi): full blocks by block transfer,
// boundary words individually so concurrent leaves sharing a boundary block
// never overwrite each other. base must be block-aligned.
// len(vals) must be hi-lo.
func WriteRange(e capsule.Env, b int, base pmem.Addr, lo, hi int, vals []uint64) {
	if hi-lo != len(vals) {
		panic("blockio: WriteRange length mismatch")
	}
	if lo >= hi {
		return
	}
	w := lo
	// Leading partial block.
	for w < hi && (int(base)+w)%b != 0 {
		e.Write(base+pmem.Addr(w), vals[w-lo])
		w++
	}
	// Full blocks.
	for w+b <= hi {
		e.WriteBlock(base+pmem.Addr(w), vals[w-lo:w-lo+b])
		w += b
	}
	// Trailing partial block.
	for w < hi {
		e.Write(base+pmem.Addr(w), vals[w-lo])
		w++
	}
}
