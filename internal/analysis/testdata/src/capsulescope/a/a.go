// Fixture for the capsulescope analyzer: stale Ctx capture, mutation of
// captured host state, harness-side API inside capsules, ephemeral slices
// escaping their capsule, and writes through an Array.Slice view.
package a

import (
	"repro/ppm"
	"slices"
	"sort"
)

var arr ppm.Array
var hostCounter int
var hostSlice []uint64

func register(rt *ppm.Runtime) {
	total := 0
	fr := rt.Register("leaf", func(c ppm.Ctx) { c.Done() })

	rt.Register("mutator", func(c ppm.Ctx) {
		total++          // want `capsule mutates "total"`
		hostCounter += 2 // want `capsule mutates "hostCounter"`
		hostSlice[0] = 1 // want `capsule mutates "hostSlice"`
		c.Done()
	})

	rt.Register("locals", func(c ppm.Ctx) {
		local := 0
		local++
		buf := make([]uint64, 4)
		buf[0] = uint64(local)
		arr.Set(c, 0, buf[0])
		c.Done()
	})

	rt.Register("harness", func(c ppm.Ctx) {
		_ = arr.Snapshot()       // want `Array\.Snapshot inside capsule code`
		arr.Load([]uint64{1, 2}) // want `Array\.Load inside capsule code`
		_ = rt.NewArray(4)       // want `Runtime\.NewArray inside capsule code`
		_ = rt.Run(fr)           // want `Runtime\.Run inside capsule code`
		c.Then(fr.Call(1))
	})

	rt.Register("outer", func(c ppm.Ctx) {
		inner := func(c2 ppm.Ctx) {
			_ = c.Int(0) // want `capsule uses Ctx "c" captured from an enclosing scope`
			c2.Done()
		}
		_ = inner
		c.Done()
	})

	var kept []uint64
	_ = kept
	keptByKey := map[int][]uint64{}
	results := make(chan []uint64, 1)
	rt.Register("escapes", func(c ppm.Ctx) {
		kept = arr.Slice(c, 0, 4)             // want `Array\.Slice result escapes the capsule \(stored into kept\)`
		hostSlice = arr.GatherAt(c, nil, nil) // want `Array\.GatherAt result escapes the capsule`
		vals := c.Scratch(8)
		head := vals[:2]
		keptByKey[0] = head // want `Ctx\.Scratch result escapes the capsule \(stored into keptByKey\)`
		grown := append(arr.Gather(c, nil, nil), 1)
		results <- grown // want `Array\.Gather result escapes the capsule \(sent on a channel\)`
		c.Done()
	})

	rt.Register("stays", func(c ppm.Ctx) {
		// Ephemeral slices used inside the capsule, and copied out through
		// persistent memory, are the intended shape.
		vals := arr.Slice(c, 0, 4)
		spans := c.ScratchSpans(2)
		spans[0] = [2]int{0, 2}
		more := arr.Gather(c, spans, c.Scratch(4)[:0])
		local := more
		arr.SetRange(c, 0, local)
		// Copying the words (not the slice) into host state is still a host
		// mutation, but it is not an escape.
		hostSlice = append(hostSlice, vals...) // want `capsule mutates "hostSlice"`
		c.Done()
	})

	rt.Register("viewwrites", func(c ppm.Ctx) {
		v := arr.Slice(c, 0, 8)
		v[0] = 1 // want `write through an Array\.Slice result \(index assignment\)`
		head := v[2:4]
		head[1]++                                                 // want `write through an Array\.Slice result \(index assignment\)`
		copy(v[4:], head)                                         // want `write through an Array\.Slice result \(copy destination\)`
		clear(head)                                               // want `write through an Array\.Slice result \(clear destination\)`
		slices.Sort(v)                                            // want `write through an Array\.Slice result \(slices\.Sort\)`
		slices.Reverse(arr.Slice(c, 0, 2))                        // want `write through an Array\.Slice result \(slices\.Reverse\)`
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) // want `write through an Array\.Slice result \(sort\.Slice\)`
		grown := append(v[:1], 5)                                 // want `write through an Array\.Slice result \(append onto it\)`
		_ = arr.Gather(c, nil, grown)                             // want `write through an Array\.Slice result \(Array\.Gather dst\)`
		arr.FoldAt(c, ppm.FoldMin, nil, nil, v[:0])               // want `write through an Array\.Slice result \(Array\.FoldAt acc\)`
		c.Done()
	})

	rt.Register("viewreads", func(c ppm.Ctx) {
		// Reading a view, storing it with SetRange, and copying it into a
		// fresh Scratch before editing are the intended uses.
		v := arr.Slice(c, 0, 8)
		var sum uint64
		for _, x := range v {
			sum += x
		}
		arr.SetRange(c, 8, v)
		own := append(c.Scratch(8)[:0], v...)
		own[0] = sum
		buf := c.Scratch(8)
		copy(buf, v[2:])
		slices.Sort(buf)
		_ = slices.Index(v, 3)
		_ = sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] })
		_ = arr.GatherAt(c, v, nil)
		arr.FoldAt(c, ppm.FoldSum, v, v[:1], buf[:1])
		arr.SetRange(c, 0, own)
		c.Done()
	})

	rt.Register("allowed", func(c ppm.Ctx) {
		//ppm:allow capsulescope fixture: single-proc debug counter
		hostCounter++
		c.Done()
	})
}

// editLevels is a helper that runs inside capsules: the check covers it too.
func editLevels(c ppm.Ctx, a ppm.Array) {
	lv := a.Slice(c, 0, 4)
	lv[1] = 7 // want `write through an Array\.Slice result \(index assignment\)`
	a.SetRange(c, 4, lv)
}
