package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func TestCreateOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region")
	r, err := Create(path, 4, 1<<12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.P() != 4 || r.MemWords() != 1<<12 || r.BlockWords() != 8 {
		t.Fatalf("geometry mismatch: %d %d %d", r.P(), r.MemWords(), r.BlockWords())
	}
	if got := r.State(); got != StateNew {
		t.Fatalf("fresh state = %d, want StateNew", got)
	}

	// Words, header fields, and chain all round-trip through a close/reopen
	// cycle.
	w := r.Words()
	for i := 0; i < 100; i++ {
		w[i] = uint64(i * 3)
	}
	r.SetRoot(7, []uint64{1, 2, 3})
	r.SetState(StateRunning)
	r.RaiseHeapHW(4096)
	r.RaiseHeapHW(1024) // monotonic: must not lower
	r.SetSetupHW(2048)
	r.SetPersistBase(8)
	r.SetFuncSig(12, 0xdeadbeef)
	r.RecordChain([]ChainStep{{Fid: 3, Args: []uint64{10}}, {Fid: 4, Args: nil}})
	r.SetCommittedIdx(1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // double-close is a no-op
		t.Fatal(err)
	}

	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.P() != 4 || r2.MemWords() != 1<<12 || r2.BlockWords() != 8 {
		t.Fatalf("reopened geometry mismatch")
	}
	w2 := r2.Words()
	for i := 0; i < 100; i++ {
		if w2[i] != uint64(i*3) {
			t.Fatalf("word %d = %d, want %d", i, w2[i], i*3)
		}
	}
	if fid, args := r2.Root(); fid != 7 || len(args) != 3 || args[2] != 3 {
		t.Fatalf("root = %d %v", fid, args)
	}
	if r2.State() != StateRunning {
		t.Fatalf("state = %d", r2.State())
	}
	if r2.HeapHW() != 4096 || r2.SetupHW() != 2048 || r2.PersistBase() != 8 {
		t.Fatalf("marks = %d/%d/%d", r2.HeapHW(), r2.SetupHW(), r2.PersistBase())
	}
	if c, h := r2.FuncSig(); c != 12 || h != 0xdeadbeef {
		t.Fatalf("funcsig = %d/%x", c, h)
	}
	steps := r2.ChainSteps()
	if len(steps) != 2 || steps[0].Fid != 3 || steps[0].Args[0] != 10 || steps[1].Fid != 4 {
		t.Fatalf("chain = %+v", steps)
	}
	if r2.CommittedIdx() != 1 {
		t.Fatalf("committed = %d", r2.CommittedIdx())
	}
}

func TestCreateTruncatesStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region")
	r, err := Create(path, 2, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.Words()[10] = 99
	r.SetState(StateDone)
	r.Close()

	// Re-Create on the same path must start from zeroed state.
	r2, err := Create(path, 2, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Words()[10] != 0 || r2.State() != StateNew {
		t.Fatalf("reused path kept stale state: word=%d state=%d", r2.Words()[10], r2.State())
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Open accepted a missing file")
	}
	// Each row is a header over a 1 MiB file; Open must return an error,
	// never panic or map it.
	for _, tc := range []struct {
		name                       string
		magic, p, memWords, blockW uint64
	}{
		{"zero magic", 0, 1, 8, 8},
		{"old format", 0x50504d5244555231, 1, 8, 8}, // "PPMRDUR1": chain area moved
		{"memWords overflows bytes", regionMagic, 1, 1<<61 + 1, 8},
		{"memWords past file", regionMagic, 1, 1 << 62, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, 1<<20)
			for i, v := range map[int]uint64{hMagic: tc.magic, hP: tc.p, hMemWords: tc.memWords, hBlockWords: tc.blockW} {
				binary.NativeEndian.PutUint64(buf[i*8:], v)
			}
			path := filepath.Join(dir, "junk")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err := Open(path); err == nil {
				r.Close()
				t.Fatal("Open accepted the file")
			}
		})
	}
}

func TestChainOverflowFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region")
	r, err := Create(path, 1, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	long := make([]ChainStep, chainCap+1)
	r.RecordChain(long)
	if got := r.ChainSteps(); got != nil {
		t.Fatalf("overflow chain recorded %d steps, want none", len(got))
	}
	// Oversized args likewise clear the record.
	r.RecordChain([]ChainStep{{Fid: 1, Args: make([]uint64, maxArgs+1)}})
	if got := r.ChainSteps(); got != nil {
		t.Fatalf("oversized-args chain recorded, want none")
	}
}

func TestSyncSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region")
	r, err := Create(path, 2, 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := r.Words()
	for i := range w {
		w[i] = uint64(i)
	}
	// None of these may fail regardless of span clamping, and only the
	// non-empty MS_SYNC ones count as barriers (Create issued the first).
	for _, err := range []error{
		r.SyncWords(-5, 10, false),
		r.SyncWords(100, 100, true),
		r.SyncWords(4000, 1<<20, true),
		r.SyncMeta(),
		r.SyncAll(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Syncs(); got != 4 {
		t.Fatalf("Syncs = %d, want 4", got)
	}
}
