package fault

import (
	"math"
	"testing"
)

func TestNoFaults(t *testing.T) {
	var in NoFaults
	for i := 0; i < 1000; i++ {
		if in.At(0) != None {
			t.Fatal("NoFaults faulted")
		}
	}
}

func TestIIDRate(t *testing.T) {
	const f = 0.05
	in := NewIID(2, f, 42)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if in.At(0) == Soft {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-f) > 0.005 {
		t.Errorf("fault rate = %v, want ~%v", rate, f)
	}
}

func TestIIDPerProcStreamsIndependentOfInterleaving(t *testing.T) {
	// Querying proc 1 must not perturb proc 0's stream.
	a := NewIID(2, 0.5, 7)
	b := NewIID(2, 0.5, 7)
	var seqA, seqB []Kind
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.At(0))
		a.At(1) // interleaved queries on the other proc
		a.At(1)
	}
	for i := 0; i < 200; i++ {
		seqB = append(seqB, b.At(0))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("stream for proc 0 depends on proc 1 queries at %d", i)
		}
	}
}

func TestIIDZeroProbability(t *testing.T) {
	in := NewIID(1, 0, 1)
	for i := 0; i < 1000; i++ {
		if in.At(0) != None {
			t.Fatal("f=0 injector faulted")
		}
	}
}

func TestScript(t *testing.T) {
	s := NewScript().Add(0, 2, Soft).Add(1, 0, Hard)
	want0 := []Kind{None, None, Soft, None}
	for i, w := range want0 {
		if got := s.At(0); got != w {
			t.Errorf("proc 0 access %d: got %v want %v", i, got, w)
		}
	}
	if got := s.At(1); got != Hard {
		t.Errorf("proc 1 access 0: got %v want Hard", got)
	}
	if got := s.At(1); got != None {
		t.Errorf("proc 1 access 1: got %v want None", got)
	}
}

// TestFirstScriptBeforeIID: a Script in front of an IID leaves the IID's
// verdicts untouched before a scripted hard fault, but for a scripted soft
// fault at its own ordinal, and reports Hard at its ordinal; every injector
// sees every access, so the IID's draws stay aligned past the soft fault.
// Other processors see the bare IID throughout.
func TestFirstScriptBeforeIID(t *testing.T) {
	const soft, k = 10, 40
	bare := NewIID(2, 0.2, 11)
	f := First{NewScript().Add(0, soft, Soft).Add(0, k, Hard), NewIID(2, 0.2, 11)}
	draws := 0
	for i := 0; i < k; i++ {
		want := bare.At(0)
		if want == Soft {
			draws++
		}
		if i == soft {
			want = Soft
		}
		if got := f.At(0); got != want {
			t.Fatalf("proc 0 access %d: got %v, want %v", i, got, want)
		}
	}
	if draws == 0 {
		t.Fatal("the IID drew no soft fault before the hard one; the check saw nothing")
	}
	bare.At(0)
	if got := f.At(0); got != Hard {
		t.Fatalf("proc 0 access %d: got %v, want Hard", k, got)
	}
	for i := 0; i < 2*k; i++ {
		if got, want := f.At(1), bare.At(1); got != want {
			t.Fatalf("proc 1 access %d: got %v, want the bare IID's %v", i, got, want)
		}
	}
}

func TestLiveness(t *testing.T) {
	l := NewLiveness(4)
	if l.LiveCount() != 4 {
		t.Fatalf("LiveCount = %d, want 4", l.LiveCount())
	}
	for p := 0; p < 4; p++ {
		if !l.IsLive(p) {
			t.Fatalf("proc %d not live initially", p)
		}
	}
	l.MarkDead(2)
	if l.IsLive(2) {
		t.Error("proc 2 live after MarkDead")
	}
	if !l.IsLive(1) {
		t.Error("proc 1 died unexpectedly")
	}
	if l.LiveCount() != 3 {
		t.Errorf("LiveCount = %d, want 3", l.LiveCount())
	}
}
