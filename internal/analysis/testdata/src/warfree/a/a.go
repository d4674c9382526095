// Fixture for the warfree analyzer: write-after-read conflicts and the
// idioms that must stay clean.
package a

import (
	"sort"

	"repro/ppm"
)

var src ppm.Array
var dst ppm.Array

// Packed arrays conflict at whole-array granularity.
func packedWAR(c ppm.Ctx) {
	v := src.Get(c, 0)
	src.Set(c, 1, v+1) // want `write-after-read conflict`
	c.Done()
}

// A prior write shields later reads: reads of your own output are not
// exposed, and writing again stays clean.
func writeThenRead(c ppm.Ctx) {
	dst.Set(c, 0, 1)
	_ = dst.Get(c, 0)
	dst.Set(c, 1, 2)
	c.Done()
}

// Reading one array and writing another is the canonical WAR-free shape;
// argument evaluation order means the Get runs before the Set.
func copyElem(c ppm.Ctx) {
	dst.Set(c, 0, src.Get(c, 0))
	c.Done()
}

// A read exposed on only one branch still poisons the write after the merge.
func branchRead(c ppm.Ctx) {
	if c.Int(0) > 0 {
		_ = src.Get(c, 2)
	}
	src.Set(c, 2, 7) // want `write-after-read conflict`
	c.Done()
}

// A write on both branches shields the read after the merge.
func branchWrite(c ppm.Ctx) {
	if c.Int(0) > 0 {
		dst.Set(c, 3, 1)
	} else {
		dst.Set(c, 3, 2)
	}
	_ = dst.Get(c, 3)
	dst.Set(c, 4, 3)
	c.Done()
}

// Raw-address accesses compare by expression text.
func rawWAR(c ppm.Ctx) {
	a := c.Addr(0)
	v := c.Read(a)
	c.Write(a, v+1) // want `write-after-read conflict`
	c.Done()
}

// CAM is a write; with no exposed read before it, the capsule is clean.
func camClaim(c ppm.Ctx) {
	c.CAM(dst.At(0), 0, c.Uint(0))
	c.Done()
}

// Slice is a read of the array it views: storing what it read elsewhere is
// clean, and a later write to the sliced array conflicts.
func sliceThenWrite(c ppm.Ctx) {
	dst.SetRange(c, 0, src.Slice(c, 0, 4))
	src.Set(c, 0, 9) // want `write-after-read conflict`
	c.Done()
}

// A callback without its own Ctx is inlined where it is defined: the Gets of
// a sort.Search probe are reads, and a later write to the probed array
// conflicts.
func searchThenWrite(c ppm.Ctx) {
	k := sort.Search(4, func(i int) bool { return src.Get(c, i) > 0 })
	src.Set(c, 0, uint64(k)) // want `write-after-read conflict`
	c.Done()
}

// GatherAt is a read of the whole array, like Gather: writing the array it
// indexed conflicts, writing another one with what it fetched is the scan
// leaves' clean shape.
func gatherAtThenWrite(c ppm.Ctx) {
	idx := c.Scratch(4)
	vals := src.GatherAt(c, idx, nil)
	dst.SetRange(c, 0, vals)
	src.Set(c, 0, vals[0]) // want `write-after-read conflict`
	c.Done()
}

// FoldAt reads the words it folds, like GatherAt: folding over cur and then
// writing cur conflicts, and writing the folded values into next is the cc
// and pagerank scan leaves' clean shape.
func foldAtThenWrite(c ppm.Ctx) {
	idx, lens, acc := c.Scratch(4), c.Scratch(1), c.Scratch(1)
	lens[0] = 4
	src.FoldAt(c, ppm.FoldMin, idx, lens, acc)
	src.SetRange(c, 0, acc) // want `write-after-read conflict`
	c.Done()
}

func foldAtIntoNext(c ppm.Ctx) {
	cur, next := src, dst
	idx, lens, acc := c.Scratch(4), c.Scratch(1), c.Scratch(1)
	lens[0] = 4
	cur.FoldAt(c, ppm.FoldSum, idx, lens, acc)
	next.SetRange(c, 0, acc)
	c.Done()
}

// A FoldOr reads the masks it folds: or-ing the frontier masks of cur and
// writing the union back into cur conflicts, and writing it into next, the
// MultiBFS sweep leaf's ping-pong, is clean.
func foldOrThenWrite(c ppm.Ctx) {
	idx, lens, acc := c.Scratch(4), c.Scratch(1), c.Scratch(1)
	lens[0] = 4
	src.FoldAt(c, ppm.FoldOr, idx, lens, acc)
	src.SetRange(c, 0, acc) // want `write-after-read conflict`
	c.Done()
}

func foldOrIntoNext(c ppm.Ctx) {
	cur, next := src, dst
	idx, lens, acc := c.Scratch(4), c.Scratch(1), c.Scratch(1)
	lens[0] = 4
	cur.FoldAt(c, ppm.FoldOr, idx, lens, acc)
	next.SetRange(c, 0, acc)
	c.Done()
}

// CAM a set of words, then GatherAt the same words: every word read is one
// the capsule already wrote, so a replay re-reads what the first execution
// left — the frontier claim leaf's shape (claim every target, then read the
// claimant words back to learn which it owns).
func camThenGatherAt(c ppm.Ctx) {
	idx := c.Scratch(4)
	for _, i := range idx {
		c.CAM(dst.At(int(i)), 0, c.Uint(0))
	}
	own := dst.GatherAt(c, idx, nil)
	src.SetRange(c, 0, own)
	c.Done()
}

// The reversed order reads the claimant words and then claims through them:
// a replay would read its own claims and decide differently.
func gatherAtThenCAM(c ppm.Ctx) {
	idx := c.Scratch(4)
	own := dst.GatherAt(c, idx, nil)
	for k, i := range idx {
		if own[k] == 0 {
			c.CAM(dst.At(int(i)), 0, c.Uint(0)) // want `write-after-read conflict`
		}
	}
	c.Done()
}

// The batched forms are the same accesses: CAMAt then GatherAt of the
// claimed words is the clean claim shape, and a ScatterAt into an array the
// capsule read conflicts like a loop of Sets.
func camAtThenGatherAt(c ppm.Ctx) {
	idx := c.Scratch(4)
	dst.CAMAt(c, idx, 0, c.Scratch(4))
	src.SetRange(c, 0, dst.GatherAt(c, idx, nil))
	c.Done()
}

func gatherAtThenBatchedWrites(c ppm.Ctx) {
	idx := c.Scratch(4)
	own := dst.GatherAt(c, idx, nil)
	dst.CAMAt(c, idx, 0, own) // want `write-after-read conflict`
	vals := src.GatherAt(c, idx, nil)
	src.ScatterAt(c, idx, vals) // want `write-after-read conflict`
	c.Done()
}

// Helpers with extra parameters are analyzed too: their accesses happen
// inside whichever capsule calls them.
func helperWAR(c ppm.Ctx, i int) uint64 {
	v := src.Get(c, i)
	src.Set(c, i, v+1) // want `write-after-read conflict`
	return v
}

// An //ppm:allow comment on the line above suppresses the diagnostic.
func allowed(c ppm.Ctx) {
	v := src.Get(c, 5)
	//ppm:allow warfree fixture: sole capsule of its run, replay re-reads args
	src.Set(c, 5, v)
	c.Done()
}

// Regression (E12 / TestScriptedSoftFault): the in-place increment through
// At-addresses is the canonical non-idempotent capsule.
func inPlaceIncrement(c ppm.Ctx) {
	v := c.Read(dst.At(0))
	c.Write(dst.At(0), v+1) // want `write-after-read conflict`
	c.Halt()
}
