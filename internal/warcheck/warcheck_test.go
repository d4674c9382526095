package warcheck

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCleanCapsule(t *testing.T) {
	tr := New(true)
	tr.OnRead(1)
	tr.OnWrite(2) // write to a different block: fine
	tr.OnRead(2)  // read after own write: fine
	tr.OnWrite(2)
	if n := len(tr.Violations()); n != 0 {
		t.Errorf("violations = %d, want 0: %v", n, tr.Violations())
	}
}

func TestExposedReadThenWrite(t *testing.T) {
	tr := New(true)
	tr.OnRead(5)
	if !tr.OnWrite(5) {
		t.Fatal("conflict not flagged")
	}
	v := tr.Violations()
	if len(v) != 1 || v[0].Block != 5 || v[0].ReadAt != 0 || v[0].WriteAt != 1 {
		t.Errorf("violation = %+v", v)
	}
	if tr.Total != 1 {
		t.Errorf("Total = %d", tr.Total)
	}
}

func TestWriteThenReadThenWriteIsClean(t *testing.T) {
	// First access is a write, so the later read is not exposed and the
	// final write does not conflict.
	tr := New(true)
	tr.OnWrite(3)
	tr.OnRead(3)
	if tr.OnWrite(3) {
		t.Error("non-exposed read flagged as conflict")
	}
}

func TestResetClearsCapsuleState(t *testing.T) {
	tr := New(true)
	tr.OnRead(7)
	tr.Reset() // capsule restart: the read never happened
	if tr.OnWrite(7) {
		t.Error("conflict flagged across Reset")
	}
	if len(tr.Violations()) != 0 {
		t.Error("violations survived Reset")
	}
}

func TestTotalAccumulatesAcrossResets(t *testing.T) {
	tr := New(true)
	for i := 0; i < 3; i++ {
		tr.OnRead(1)
		tr.OnWrite(1)
		tr.Reset()
	}
	if tr.Total != 3 {
		t.Errorf("Total = %d, want 3", tr.Total)
	}
}

func TestDisabledTrackerIsNoop(t *testing.T) {
	tr := New(false)
	tr.OnRead(1)
	if tr.OnWrite(1) {
		t.Error("disabled tracker flagged a conflict")
	}
	if tr.Total != 0 || len(tr.Violations()) != 0 {
		t.Error("disabled tracker recorded state")
	}
}

func TestMultipleBlocksIndependent(t *testing.T) {
	tr := New(true)
	tr.OnRead(1)
	tr.OnRead(2)
	tr.OnWrite(3)
	tr.OnWrite(2)
	tr.OnWrite(1)
	if len(tr.Violations()) != 2 {
		t.Errorf("violations = %v, want 2 entries", tr.Violations())
	}
}

// Property: a capsule whose writes all precede its reads per block is
// conflict free; a capsule that reads a block strictly before writing it is
// flagged.
func TestPropertyFirstAccessDecides(t *testing.T) {
	planted, clean := 0, 0
	f := func(ops []bool, blocks []uint8) bool {
		tr := New(true)
		firstIsRead := map[int]bool{}
		expect := map[int]bool{}
		for i, isRead := range ops {
			if i >= len(blocks) {
				break
			}
			b := int(blocks[i] % 8)
			if _, seen := firstIsRead[b]; !seen {
				firstIsRead[b] = isRead
			}
			if isRead {
				tr.OnRead(b)
			} else {
				tr.OnWrite(b)
				if firstIsRead[b] {
					expect[b] = true
				}
			}
		}
		if len(expect) > 0 {
			planted++
		} else {
			clean++
		}
		got := map[int]bool{}
		for _, v := range tr.Violations() {
			got[v.Block] = true
		}
		if len(got) != len(expect) {
			return false
		}
		for b := range expect {
			if !got[b] {
				return false
			}
		}
		return true
	}
	// A fixed seed, so the logged row repeats bit for bit.
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
	t.Logf("%d capsules with a planted conflict, %d clean", planted, clean)
}
