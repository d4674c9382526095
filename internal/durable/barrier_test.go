package durable_test

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/durable"
)

// failMsync makes the k-th msync call from now (1-based) return errno instead
// of reaching the kernel, until the test ends.
func failMsync(t *testing.T, k int64, errno syscall.Errno) {
	real := durable.Msync
	var calls atomic.Int64
	durable.Msync = func(addr, length, flags uintptr) syscall.Errno {
		if calls.Add(1) == k {
			return errno
		}
		return real(addr, length, flags)
	}
	t.Cleanup(func() { durable.Msync = real })
}

// TestBarrierErrors pins what a barrier reports: EINTR is retried inside the
// one barrier, any other errno comes back wrapped, a failed barrier does not
// reach the AfterBarrier hook, and Close still releases the mapping when its
// final flush fails.
func TestBarrierErrors(t *testing.T) {
	r, err := durable.Create(filepath.Join(t.TempDir(), "region"), 1, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	var hooked int
	durable.AfterBarrier = func(*durable.Region) { hooked++ }
	t.Cleanup(func() { durable.AfterBarrier = nil })

	failMsync(t, 1, syscall.EINTR)
	if err := r.SyncAll(); err != nil {
		t.Fatalf("SyncAll across EINTR = %v, want nil", err)
	}
	if r.Syncs() != 2 || hooked != 1 { // Create's barrier, then this one
		t.Fatalf("after EINTR retry: Syncs = %d, hook calls = %d; want 2, 1", r.Syncs(), hooked)
	}

	failMsync(t, 2, syscall.EIO)
	if err := r.SyncMeta(); err != nil {
		t.Fatalf("SyncMeta = %v, want nil", err)
	}
	if err := r.SyncWords(0, 64, true); !errors.Is(err, syscall.EIO) {
		t.Fatalf("failed SyncWords = %v, want EIO", err)
	}
	if hooked != 2 {
		t.Fatalf("hook calls = %d, want 2 (a failed barrier is not a snapshot point)", hooked)
	}

	failMsync(t, 1, syscall.ENOMEM)
	if err := r.Close(); !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("Close with a failing final flush = %v, want ENOMEM", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestCreateBarrierFails: a region whose first barrier fails is not handed out.
func TestCreateBarrierFails(t *testing.T) {
	failMsync(t, 1, syscall.EIO)
	if r, err := durable.Create(filepath.Join(t.TempDir(), "region"), 1, 1024, 8); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Create = (%v, %v), want EIO", r, err)
	}
}
