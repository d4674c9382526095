package simram

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

func TestNativeSum(t *testing.T) {
	mem := make([]uint64, 17)
	for i := 0; i < 16; i++ {
		mem[i] = uint64(i + 1)
	}
	regs, steps, err := SumProgram(16).RunNative(mem, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if regs[0] != 136 {
		t.Errorf("sum = %d, want 136", regs[0])
	}
	if mem[16] != 136 {
		t.Errorf("mem[16] = %d, want 136", mem[16])
	}
	if steps == 0 {
		t.Error("zero steps")
	}
}

func TestNativeFib(t *testing.T) {
	regs, _, err := FibProgram(10).RunNative(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if regs[0] != 55 {
		t.Errorf("fib(10) = %d, want 55", regs[0])
	}
}

func TestNativeReverse(t *testing.T) {
	mem := []uint64{1, 2, 3, 4, 5}
	if _, _, err := ReverseProgram(5).RunNative(mem, 1<<20); err != nil {
		t.Fatal(err)
	}
	want := []uint64{5, 4, 3, 2, 1}
	for i := range want {
		if mem[i] != want[i] {
			t.Errorf("mem[%d] = %d, want %d", i, mem[i], want[i])
		}
	}
}

func TestNativeBadPC(t *testing.T) {
	p := Program{{Op: Jmp, Imm: 99}}
	if _, _, err := p.RunNative(nil, 100); err == nil {
		t.Error("expected error for bad pc")
	}
}

func TestNativeStepLimit(t *testing.T) {
	p := Program{{Op: Jmp, Imm: 0}}
	if _, _, err := p.RunNative(nil, 10); err == nil {
		t.Error("expected step-limit error")
	}
}

// runSim executes prog on a 1-processor PM machine with the given injector
// and returns final regs, simulated memory, and total work.
func runSim(t *testing.T, prog Program, memInit []uint64, inj fault.Injector) ([NumRegs]uint64, []uint64, int64) {
	t.Helper()
	m := machine.New(machine.Config{P: 1, Check: true, StrictCheck: true, Injector: inj})
	s := New(m, t.Name(), prog, len(memInit)+1)
	s.LoadMem(memInit)
	s.Install(0)
	m.Run()
	return s.Regs(), s.MemSnapshot(), m.Stats.Summarize().Work
}

func TestSimMatchesNativeFaultless(t *testing.T) {
	memInit := make([]uint64, 8)
	for i := range memInit {
		memInit[i] = uint64(i * 3)
	}
	nat := append([]uint64(nil), memInit...)
	nat = append(nat, 0)
	natRegs, _, err := SumProgram(8).RunNative(nat, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	regs, mem, _ := runSim(t, SumProgram(8), memInit, fault.NoFaults{})
	if regs[0] != natRegs[0] {
		t.Errorf("sim r0 = %d, native %d", regs[0], natRegs[0])
	}
	if mem[8] != nat[8] {
		t.Errorf("sim mem[8] = %d, native %d", mem[8], nat[8])
	}
}

func TestSimFibUnderFaults(t *testing.T) {
	regs, _, _ := runSim(t, FibProgram(15), []uint64{0}, fault.NewIID(1, 0.05, 21))
	if regs[0] != 610 {
		t.Errorf("fib(15) = %d, want 610", regs[0])
	}
}

func TestSimReverseUnderFaults(t *testing.T) {
	memInit := []uint64{10, 20, 30, 40, 50, 60, 70}
	_, mem, _ := runSim(t, ReverseProgram(7), memInit, fault.NewIID(1, 0.1, 5))
	want := []uint64{70, 60, 50, 40, 30, 20, 10}
	for i := range want {
		if mem[i] != want[i] {
			t.Errorf("mem[%d] = %d, want %d", i, mem[i], want[i])
		}
	}
}

// TestTheorem32LinearOverhead checks the O(t) expected total work claim: the
// per-step cost ratio Wf/t must be flat (within noise) as t grows.
func TestTheorem32LinearOverhead(t *testing.T) {
	ratio := func(n int) float64 {
		prog := FibProgram(n)
		_, steps, err := prog.RunNative(nil, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		_, _, work := runSim(t, prog, []uint64{0}, fault.NewIID(1, 0.01, 9))
		t.Logf("f=0.01 t=%d Wf=%d Wf/t=%.1f", steps, work, float64(work)/float64(steps))
		return float64(work) / float64(steps)
	}
	small := ratio(10)
	large := ratio(200)
	if large > small*1.5 {
		t.Errorf("per-step cost grew: %f -> %f (not O(t))", small, large)
	}
}

// TestWorkGrowsWithFaultRate sanity-checks the 1/(1-kf) blowup direction.
func TestWorkGrowsWithFaultRate(t *testing.T) {
	work := func(f float64) int64 {
		var inj fault.Injector = fault.NoFaults{}
		if f > 0 {
			inj = fault.NewIID(1, f, 33)
		}
		_, _, w := runSim(t, FibProgram(100), []uint64{0}, inj)
		return w
	}
	w0 := work(0)
	w5 := work(0.05)
	if w5 <= w0 {
		t.Errorf("work at f=0.05 (%d) not above faultless (%d)", w5, w0)
	}
}
