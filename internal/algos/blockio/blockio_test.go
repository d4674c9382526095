package blockio

import (
	"testing"

	"repro/internal/capsule"
	"repro/internal/machine"
	"repro/internal/pmem"
)

const b = 8

// run executes fn as a single capsule on a fresh 1-proc machine and returns
// the machine for inspection.
func run(t *testing.T, fn func(e capsule.Env, base pmem.Addr)) (*machine.Machine, pmem.Addr) {
	t.Helper()
	m := machine.New(machine.Config{P: 1, BlockWords: b, Check: true, StrictCheck: true})
	base := m.HeapAllocBlocks(128)
	fid := m.Registry.Register("blockio/test", func(e capsule.Env) {
		fn(e, base)
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	return m, base
}

func TestReadRangeAgainstMemory(t *testing.T) {
	m := machine.New(machine.Config{P: 1, BlockWords: b})
	base := m.HeapAllocBlocks(64)
	for i := 0; i < 64; i++ {
		m.Mem.Write(base+pmem.Addr(i), uint64(i*10))
	}
	var got []uint64
	fid := m.Registry.Register("t", func(e capsule.Env) {
		ReadRange(e, b, base, 3, 19, func(_ int, v uint64) { got = append(got, v) })
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	if len(got) != 16 || got[0] != 30 || got[15] != 180 {
		t.Errorf("got %v", got)
	}
	// 3..19 spans blocks 0,1,2 of the array: 3 transfers + capsule-start 2
	// + halt 1. Just check the read count.
	if r := m.Stats.Summarize().Reads; r != 2+3 {
		t.Errorf("reads = %d, want 5", r)
	}
}

func TestWriteRangeBoundariesDontClobber(t *testing.T) {
	m := machine.New(machine.Config{P: 1, BlockWords: b})
	base := m.HeapAllocBlocks(32)
	for i := 0; i < 32; i++ {
		m.Mem.Write(base+pmem.Addr(i), 999)
	}
	vals := make([]uint64, 13)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	fid := m.Registry.Register("t", func(e capsule.Env) {
		WriteRange(e, b, base, 5, 18, vals)
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	for i := 0; i < 32; i++ {
		got := m.Mem.Read(base + pmem.Addr(i))
		if i >= 5 && i < 18 {
			if got != uint64(i-5+1) {
				t.Errorf("word %d = %d, want %d", i, got, i-5+1)
			}
		} else if got != 999 {
			t.Errorf("word %d clobbered: %d", i, got)
		}
	}
}

func TestWriteRangeFullBlocksUseBlockTransfers(t *testing.T) {
	m := machine.New(machine.Config{P: 1, BlockWords: b})
	base := m.HeapAllocBlocks(64)
	vals := make([]uint64, 32)
	fid := m.Registry.Register("t", func(e capsule.Env) {
		WriteRange(e, b, base, 8, 40, vals) // exactly blocks 1..4
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.Run()
	// 4 block writes + 1 halt.
	if w := m.Stats.Summarize().Writes; w != 5 {
		t.Errorf("writes = %d, want 5", w)
	}
}

func TestWriteRangeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := machine.New(machine.Config{P: 1, BlockWords: b})
	base := m.HeapAllocBlocks(16)
	fid := m.Registry.Register("t", func(e capsule.Env) {
		WriteRange(e, b, base, 0, 4, make([]uint64, 3))
		e.Halt()
	})
	m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
	m.RunProc(0)
}

// TestTransfersCount pins what WriteRange charges: one transfer per full
// block, one per boundary word.
func TestTransfersCount(t *testing.T) {
	cases := []struct{ lo, hi, want int }{
		{0, 0, 0},
		{0, 8, 1},          // one full block
		{0, 16, 2},         // two full blocks
		{1, 8, 7},          // partial leading
		{0, 9, 2},          // full + one word
		{5, 18, 3 + 1 + 2}, // 3 lead words, 1 full block, 2 tail words
	}
	for _, c := range cases {
		m := machine.New(machine.Config{P: 1, BlockWords: b})
		base := m.HeapAllocBlocks(32)
		fid := m.Registry.Register("t", func(e capsule.Env) {
			WriteRange(e, b, base, c.lo, c.hi, make([]uint64, c.hi-c.lo))
			e.Halt()
		})
		m.SetRestart(0, m.BuildClosure(0, fid, pmem.Nil))
		m.Run()
		// The halt is one more write.
		if got := m.Stats.Summarize().Writes - 1; got != int64(c.want) {
			t.Errorf("WriteRange(%d,%d) charged %d transfers, want %d", c.lo, c.hi, got, c.want)
		}
	}
}
