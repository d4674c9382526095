package simem

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

const testB = 8

func extInit(nBlocks int) []uint64 {
	vals := make([]uint64, nBlocks*testB)
	for i := range vals {
		vals[i] = uint64(i%97 + 1)
	}
	return vals
}

func runPM(t *testing.T, name string, prog Program, init []uint64, extBlocks int, inj fault.Injector) ([]uint64, int64) {
	t.Helper()
	m := machine.New(machine.Config{
		P: 1, BlockWords: testB, EphWords: 4 * prog.EphWords(),
		Check: true, StrictCheck: true, Injector: inj,
	})
	s := New(m, name, prog, extBlocks)
	s.LoadExt(init)
	s.Install(0)
	m.Run()
	return s.ExtSnapshot(), m.Stats.Summarize().Work
}

func TestScanSumNativeAndPMAgree(t *testing.T) {
	const nb = 16
	init := extInit(nb + 1)
	var want uint64
	for _, v := range init[:nb*testB] {
		want += v
	}

	natExt := append([]uint64(nil), init...)
	prog := &ScanSum{NBlocks: nb, OutBlock: nb, B: testB, M: 4 * testB}
	tAcc, err := RunNative(prog, natExt, testB, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if natExt[nb*testB] != want {
		t.Fatalf("native sum = %d, want %d", natExt[nb*testB], want)
	}
	if tAcc != nb+1 {
		t.Errorf("native access count = %d, want %d", tAcc, nb+1)
	}

	ext, _ := runPM(t, "scansum", &ScanSum{NBlocks: nb, OutBlock: nb, B: testB, M: 4 * testB},
		init, nb+1, fault.NoFaults{})
	if ext[nb*testB] != want {
		t.Errorf("PM sum = %d, want %d", ext[nb*testB], want)
	}
}

func TestScanSumUnderFaults(t *testing.T) {
	const nb = 12
	init := extInit(nb + 1)
	var want uint64
	for _, v := range init[:nb*testB] {
		want += v
	}
	ext, _ := runPM(t, "scansum-f", &ScanSum{NBlocks: nb, OutBlock: nb, B: testB, M: 4 * testB},
		init, nb+1, fault.NewIID(1, 0.03, 17))
	if ext[nb*testB] != want {
		t.Errorf("PM sum under faults = %d, want %d", ext[nb*testB], want)
	}
}

func TestBlockReverse(t *testing.T) {
	const nb = 10
	init := extInit(nb)
	prog := &BlockReverse{NBlocks: nb, B: testB, M: 4 * testB}
	ext, _ := runPM(t, "reverse", prog, init, nb, fault.NewIID(1, 0.02, 23))
	for blk := 0; blk < nb; blk++ {
		for w := 0; w < testB; w++ {
			want := init[(nb-1-blk)*testB+w]
			if ext[blk*testB+w] != want {
				t.Fatalf("block %d word %d = %d, want %d", blk, w, ext[blk*testB+w], want)
			}
		}
	}
}

func TestFill(t *testing.T) {
	const nb = 6
	prog := &Fill{NBlocks: nb, Value: 42, B: testB, M: 2 * testB}
	ext, _ := runPM(t, "fill", prog, make([]uint64, nb*testB), nb, fault.NewIID(1, 0.05, 31))
	for i, v := range ext[:nb*testB] {
		if v != 42 {
			t.Fatalf("word %d = %d, want 42", i, v)
		}
	}
}

// TestTheorem33LinearInT verifies the O(t) shape: PM work per source access
// stays bounded as t grows, for fixed M/B. The faulty rows run at the
// theorem's rate f = B/(cM) with c = 4, which keeps a round's failure
// probability constant, so Wf/t stays bounded there too.
func TestTheorem33LinearInT(t *testing.T) {
	for _, row := range []struct {
		mb     int // M/B
		faulty bool
		sizes  []int // t grows with the scanned blocks
	}{
		{mb: 4, sizes: []int{16, 256}},
		{mb: 4, faulty: true, sizes: []int{32, 128, 512}},
		{mb: 16, faulty: true, sizes: []int{32, 128, 512}},
	} {
		m := row.mb * testB
		f := 0.0
		if row.faulty {
			f = float64(testB) / float64(4*m)
		}
		t.Run(fmt.Sprintf("M/B=%d/f=%v", row.mb, f), func(t *testing.T) {
			var ratios []float64
			for _, nb := range row.sizes {
				init := extInit(nb + 1)
				natExt := append([]uint64(nil), init...)
				tAcc, err := RunNative(&ScanSum{NBlocks: nb, OutBlock: nb, B: testB, M: m}, natExt, testB, 1<<24)
				if err != nil {
					t.Fatal(err)
				}
				var inj fault.Injector = fault.NoFaults{}
				if f > 0 {
					inj = fault.NewIID(1, f, 3)
				}
				ext, work := runPM(t, "ratio", &ScanSum{NBlocks: nb, OutBlock: nb, B: testB, M: m}, init, nb+1, inj)
				if ext[nb*testB] != natExt[nb*testB] {
					t.Fatalf("t=%d: PM sum = %d, want %d", tAcc, ext[nb*testB], natExt[nb*testB])
				}
				ratios = append(ratios, float64(work)/float64(tAcc))
				t.Logf("t=%d Wf=%d Wf/t=%.1f", tAcc, work, ratios[len(ratios)-1])
			}
			if small, large := ratios[0], ratios[len(ratios)-1]; large > small*1.5 {
				t.Errorf("per-access cost grew %f -> %f; not O(t)", small, large)
			}
		})
	}
}

// TestWriteBufferServesReads checks read-your-own-write within a round: a
// program that writes a block and immediately reads it back must see its own
// buffered data even though the commit has not happened yet.
type writeThenRead struct{ B, M int }

func (p *writeThenRead) RegWords() int { return 2 }
func (p *writeThenRead) EphWords() int { return p.M }
func (p *writeThenRead) Step(regs, eph []uint64) Access {
	switch regs[0] {
	case 0: // write sentinel to block 0
		for w := 0; w < p.B; w++ {
			eph[w] = 1000 + uint64(w)
		}
		regs[0] = 1
		return Access{Kind: Write, Block: 0, EphOff: 0}
	case 1: // read it back into the second buffer slot
		regs[0] = 2
		return Access{Kind: Read, Block: 0, EphOff: p.B}
	case 2: // verify and publish result to block 1
		ok := uint64(1)
		for w := 0; w < p.B; w++ {
			if eph[p.B+w] != 1000+uint64(w) {
				ok = 0
			}
		}
		for w := 0; w < p.B; w++ {
			eph[w] = ok
		}
		regs[0] = 3
		return Access{Kind: Write, Block: 1, EphOff: 0}
	default:
		return Access{Kind: Done}
	}
}

func TestWriteBufferServesReads(t *testing.T) {
	prog := &writeThenRead{B: testB, M: 4 * testB}
	ext, _ := runPM(t, "wtr", prog, make([]uint64, 2*testB), 2, fault.NewIID(1, 0.05, 41))
	if ext[testB] != 1 {
		t.Error("read-your-own-write within a round failed")
	}
}

// TestRunNativeAccessLimit exercises the runaway guard.
func TestRunNativeAccessLimit(t *testing.T) {
	prog := &Fill{NBlocks: 1000, Value: 1, B: testB, M: 2 * testB}
	if _, err := RunNative(prog, make([]uint64, 1000*testB), testB, 5); err == nil {
		t.Error("expected access-limit error")
	}
}
