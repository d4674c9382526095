package simcache

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

const testB = 8

func runPM(t *testing.T, name string, prog Program, init []uint64, extWords, mWords int, inj fault.Injector) ([]uint64, int64) {
	t.Helper()
	m := machine.New(machine.Config{
		P: 1, BlockWords: testB, EphWords: 8 * mWords,
		Check: true, StrictCheck: true, Injector: inj,
	})
	s := New(m, name, prog, extWords, mWords)
	s.LoadExt(init)
	s.Install(0)
	m.Run()
	return s.ExtSnapshot(), m.Stats.Summarize().Work
}

func TestArraySumNative(t *testing.T) {
	mem := make([]uint64, 33)
	for i := 0; i < 32; i++ {
		mem[i] = uint64(i)
	}
	if _, err := RunNative(&ArraySum{N: 32}, mem, 1<<20); err != nil {
		t.Fatal(err)
	}
	if mem[32] != 496 {
		t.Errorf("sum = %d, want 496", mem[32])
	}
}

func TestArraySumPMUnderFaults(t *testing.T) {
	const n = 64
	init := make([]uint64, n+testB)
	var want uint64
	for i := 0; i < n; i++ {
		init[i] = uint64(3 * i)
		want += init[i]
	}
	ext, _ := runPM(t, "sum", &ArraySum{N: n}, init, n+testB, 4*testB, fault.NewIID(1, 0.02, 13))
	if ext[n] != want {
		t.Errorf("sum = %d, want %d", ext[n], want)
	}
}

func TestStrideWalkPM(t *testing.T) {
	const n, stride, count = 64, 16, 32
	init := make([]uint64, n)
	nat := append([]uint64(nil), init...)
	if _, err := RunNative(&StrideWalk{N: n, Stride: stride, Count: count}, nat, 1<<20); err != nil {
		t.Fatal(err)
	}
	ext, _ := runPM(t, "stride", &StrideWalk{N: n, Stride: stride, Count: count},
		init, n, 4*testB, fault.NewIID(1, 0.03, 29))
	for i := range nat {
		if ext[i] != nat[i] {
			t.Fatalf("word %d: PM %d native %d", i, ext[i], nat[i])
		}
	}
}

func TestHotLoopPM(t *testing.T) {
	const k, r = 16, 10
	init := make([]uint64, k)
	ext, _ := runPM(t, "hot", &HotLoop{K: k, R: r}, init, k, 8*testB, fault.NewIID(1, 0.02, 37))
	for i := 0; i < k; i++ {
		if ext[i] != r {
			t.Fatalf("word %d = %d, want %d", i, ext[i], r)
		}
	}
}

func TestLRUMissCounting(t *testing.T) {
	// Sequential scan of n words with line size b and capacity c lines
	// misses exactly n/b times.
	const n = 128
	mem := make([]uint64, n+testB)
	misses, err := RunLRU(&ArraySum{N: n}, mem, 4, testB, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n/testB) + 1 // +1 for the result block
	if misses != want {
		t.Errorf("misses = %d, want %d", misses, want)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	mem := make([]uint64, 4*testB)
	c := NewLRU(2, testB, mem)
	c.Read(0)         // block 0
	c.Read(testB)     // block 1
	c.Read(2 * testB) // block 2: evicts block 0
	c.Read(testB)     // block 1: hit
	if c.Misses != 3 {
		t.Errorf("misses = %d, want 3", c.Misses)
	}
	c.Read(0) // block 0 again: miss (was evicted)
	if c.Misses != 4 {
		t.Errorf("misses = %d, want 4", c.Misses)
	}
}

func TestLRUWriteBack(t *testing.T) {
	mem := make([]uint64, 4*testB)
	c := NewLRU(1, testB, mem)
	c.Write(0, 42)
	c.Read(testB) // evicts dirty block 0 -> writeback
	if mem[0] != 42 {
		t.Errorf("mem[0] = %d, want 42 after writeback", mem[0])
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Writebacks)
	}
}

// TestTheorem34CostTracksMisses: for the hot loop, LRU misses are nearly
// independent of the repeat count R, and so must be the PM simulation cost.
func TestTheorem34CostTracksMisses(t *testing.T) {
	const k = 32
	cost := func(r int) int64 {
		init := make([]uint64, k)
		_, w := runPM(t, "hotratio", &HotLoop{K: k, R: r}, init, k, 8*testB, fault.NoFaults{})
		t.Logf("R=%d PM work=%d", r, w)
		return w
	}
	w1 := cost(2)
	w2 := cost(20)
	// 10x more executed instructions but the same miss count: PM cost may
	// grow a little (round boundaries) but not by 10x.
	if w2 > 3*w1 {
		t.Errorf("PM cost grew with hits, not misses: R=2 -> %d, R=20 -> %d", w1, w2)
	}
}

func TestRunNativeStepLimit(t *testing.T) {
	if _, err := RunNative(&HotLoop{K: 4, R: 1 << 30}, make([]uint64, 4), 100); err == nil {
		t.Error("expected step-limit error")
	}
}
