// Fixture for the warfree analyzer's block-spaced granularity: arrays
// provably bound to NewBlockArray conflict per element index, so the
// tree-combine idiom (read children, write parent) stays clean while
// read-then-write of the same index is flagged.
package blockarr

import "repro/ppm"

func register(rt *ppm.Runtime) {
	sums := rt.NewBlockArray(16)
	packed := rt.NewArray(16)

	rt.Register("upCombine", func(c ppm.Ctx) {
		node := c.Int(0)
		l := sums.Get(c, 2*node)
		r := sums.Get(c, 2*node+1)
		sums.Set(c, node, l+r)
		c.Done()
	})

	rt.Register("sameIndex", func(c ppm.Ctx) {
		i := c.Int(0)
		v := sums.Get(c, i)
		sums.Set(c, i, v+1) // want `write-after-read conflict`
		c.Done()
	})

	rt.Register("packedTree", func(c ppm.Ctx) {
		node := c.Int(0)
		l := packed.Get(c, 2*node)
		packed.Set(c, node, l) // want `write-after-read conflict`
		c.Done()
	})

	// Regression (ppm_test.go TestArrayRoundTrip): bump one block-array slot
	// from another — Get evaluates as an argument before the Set runs, and
	// the distinct indices live in distinct blocks, so this is clean...
	rt.Register("bumpAcross", func(c ppm.Ctx) {
		sums.Set(c, 3, sums.Get(c, 2)+41)
		c.Done()
	})

	// ...while the in-place version (the shape the fix replaced) is not.
	rt.Register("bumpInPlace", func(c ppm.Ctx) {
		sums.Set(c, 2, sums.Get(c, 2)+41) // want `write-after-read conflict`
		c.Done()
	})

	// The round-parity flags of graph/cc's check capsule: read this round's
	// flag, clear the other round's. A block each, so the capsule never
	// writes a block it read...
	flags := rt.NewBlockArray(2)
	rt.Register("parityCheck", func(c ppm.Ctx) {
		parity := c.Int(0)
		if flags.Get(c, parity) != 0 {
			flags.Set(c, 1-parity, 0)
		}
		c.Done()
	})

	// ...which two words of one packed array would not give it: they share
	// a block, and that is why the flags are block-spaced.
	packedFlags := rt.NewArray(2)
	rt.Register("parityCheckPacked", func(c ppm.Ctx) {
		parity := c.Int(0)
		if packedFlags.Get(c, parity) != 0 {
			packedFlags.Set(c, 1-parity, 0) // want `write-after-read conflict`
		}
		c.Done()
	})
}
