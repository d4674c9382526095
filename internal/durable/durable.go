// Package durable maps a PPM word region onto a file so capsule effects
// survive the process. The layout mirrors the paper's persistent-memory
// contract: a small metadata prefix (run header, the root Seq chain)
// followed by the word memory itself, all in one MAP_SHARED mapping so
// ordinary stores land in the page cache and an msync drains them to the
// file. A persistence point is one store to its worker's epoch word in the
// word memory; recovery reads only the header and the chain.
//
// Flush discipline — what is guaranteed, and by what:
//
//   - kill -9: every completed store survives, because the page cache of a
//     MAP_SHARED mapping outlives the process. No call buys this, so a
//     persistence point is a store only.
//   - Power cut: the file holds at least everything stored before the last
//     MS_SYNC barrier that returned (SyncWords(.., true), SyncMeta, SyncAll,
//     Close). Callers advance the committed index between two of them, data
//     then index, so it never runs ahead; a barrier that fails returns its
//     error and the caller must not commit.
//   - MS_ASYNC (SyncWords(.., false)) buys neither — a no-op since Linux
//     2.6.19 — and remains only as the arm the benchmark prices.
//
// Header and chain words are accessed with atomics.
package durable

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// File geometry. The header occupies one page; the chain area after it
// holds up to chainCap recorded root-Seq steps. The data region starts at
// the next page boundary.
const (
	headerBytes = 4096
	stepWords   = 20 // fid, nargs, args[16], 2 reserved
	chainCap    = 256
	maxArgs     = 16

	regionMagic = 0x50504d5244555232 // "PPMRDUR2"
)

// Header word indices (within the first page viewed as uint64s).
const (
	hMagic = iota
	hMemWords
	hBlockWords
	hP
	hState
	hRootFid
	hRootNArgs
	hRootArgs0 // ..hRootArgs0+15
	hChainLen  = hRootArgs0 + maxArgs
	hCommitted = hChainLen + 1
	hHeapHW    = hCommitted + 1
	hSetupHW   = hHeapHW + 1
	hPersist   = hSetupHW + 1
	hFuncCount = hPersist + 1
	hFuncHash  = hFuncCount + 1
)

// Run states recorded in the header.
const (
	StateNew     = 0 // created, no run started
	StateRunning = 1 // a run began and has not committed completion
	StateDone    = 2 // last run completed (or Close flushed a finished runtime)
)

const (
	msAsync = 0x1 // MS_ASYNC
	msSync  = 0x4 // MS_SYNC
)

// Test seams; nothing outside a test assigns them.
var (
	// Msync is msync(2), raw: the stdlib has no wrapper. A test swaps it to
	// fail the k-th barrier.
	Msync = func(addr, length, flags uintptr) syscall.Errno {
		_, _, errno := syscall.Syscall(syscall.SYS_MSYNC, addr, length, flags)
		return errno
	}
	// AfterBarrier, when set, runs after every MS_SYNC that succeeded.
	// Barriers are issued at quiescent points only, so the file then equals
	// what was synced and a test may copy it.
	AfterBarrier func(*Region)
)

// ChainStep is one recorded step of a root Seq chain.
type ChainStep struct {
	Fid  uint64
	Args []uint64
}

// Region is an open mapping of a durable region file.
type Region struct {
	f       *os.File
	data    []byte
	hdr     []uint64 // header page
	chain   []uint64 // chain area
	words   []uint64 // the PPM word memory
	dataOff int
	p       int
	mem     int
	block   int
	closed  atomic.Bool
	syncs   atomic.Int64 // MS_SYNC barriers issued
}

// layout returns where the word memory starts, the page after the header
// and chain area, and the file size of a region of memWords words.
func layout(memWords int) (dataOff, total int) {
	page := syscall.Getpagesize()
	dataOff = (headerBytes + chainCap*stepWords*8 + page - 1) / page * page
	total = (dataOff + memWords*8 + page - 1) / page * page
	return
}

// Create makes (or truncates) the region file at path and maps it. The data
// region starts zeroed, state StateNew.
func Create(path string, p, memWords, blockWords int) (*Region, error) {
	if p <= 0 || memWords <= 0 || blockWords <= 0 {
		return nil, fmt.Errorf("durable: bad geometry p=%d memWords=%d blockWords=%d", p, memWords, blockWords)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	_, total := layout(memWords)
	// Truncate twice so a reused path starts from a hole-backed zero file
	// rather than inheriting stale words.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %w", err)
	}
	r, err := mapRegion(f, p, memWords, blockWords)
	if err != nil {
		f.Close()
		return nil, err
	}
	atomic.StoreUint64(&r.hdr[hMemWords], uint64(memWords))
	atomic.StoreUint64(&r.hdr[hBlockWords], uint64(blockWords))
	atomic.StoreUint64(&r.hdr[hP], uint64(p))
	atomic.StoreUint64(&r.hdr[hState], StateNew)
	// Magic last: a crash between Truncate and here leaves a file Open
	// rejects instead of a half-initialized header it would trust.
	atomic.StoreUint64(&r.hdr[hMagic], regionMagic)
	if err := r.SyncMeta(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Open maps an existing region file, validating magic and size.
func Open(path string) (*Region, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var head [headerBytes]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: reading header: %w", err)
	}
	hw := unsafe.Slice((*uint64)(unsafe.Pointer(&head[0])), headerBytes/8)
	if hw[hMagic] != regionMagic {
		f.Close()
		return nil, fmt.Errorf("durable: %s is not a PPM region file", path)
	}
	p := int(hw[hP])
	memWords := int(hw[hMemWords])
	blockWords := int(hw[hBlockWords])
	if p <= 0 || p > 1<<16 || memWords <= 0 || blockWords <= 0 {
		f.Close()
		return nil, fmt.Errorf("durable: %s has a corrupt header (p=%d memWords=%d blockWords=%d)", path, p, memWords, blockWords)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %w", err)
	}
	// Bound memWords by the file before sizing anything from it: a corrupt
	// count would overflow memWords*8 and slip under the size check.
	if dataOff, _ := layout(0); int64(memWords) > (st.Size()-int64(dataOff))/8 {
		f.Close()
		return nil, fmt.Errorf("durable: %s truncated (%d bytes, header claims %d words)", path, st.Size(), memWords)
	}
	r, err := mapRegion(f, p, memWords, blockWords)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func mapRegion(f *os.File, p, memWords, blockWords int) (*Region, error) {
	dataOff, total := layout(memWords)
	data, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("durable: mmap: %w", err)
	}
	r := &Region{
		f:       f,
		data:    data,
		hdr:     unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), headerBytes/8),
		chain:   unsafe.Slice((*uint64)(unsafe.Pointer(&data[headerBytes])), chainCap*stepWords),
		words:   unsafe.Slice((*uint64)(unsafe.Pointer(&data[dataOff])), memWords),
		dataOff: dataOff,
		p:       p,
		mem:     memWords,
		block:   blockWords,
	}
	return r, nil
}

// Close flushes the whole mapping with MS_SYNC, unmaps it, and closes the
// file, returning what failed of the three. Safe to call more than once;
// only the first call does work.
func (r *Region) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	data := r.data
	err := r.msync(0, len(data), msSync)
	r.data, r.hdr, r.chain, r.words = nil, nil, nil, nil
	return errors.Join(err, syscall.Munmap(data), r.f.Close())
}

// Path returns the region file's path.
func (r *Region) Path() string { return r.f.Name() }

// Syncs returns the number of MS_SYNC barriers issued on this region.
func (r *Region) Syncs() int64 { return r.syncs.Load() }

// Words returns the mapped PPM word memory.
func (r *Region) Words() []uint64 { return r.words }

// Geometry accessors.
func (r *Region) P() int          { return r.p }
func (r *Region) MemWords() int   { return r.mem }
func (r *Region) BlockWords() int { return r.block }

// msync msyncs data[off:off+n], widened to page boundaries as msync requires;
// a released mapping has nothing to flush. EINTR is retried; any other errno
// is returned — after EIO or ENOMEM the file does not hold the span, and the
// caller must not commit.
func (r *Region) msync(off, n int, flags uintptr) error {
	if n <= 0 || r.data == nil {
		return nil
	}
	page := syscall.Getpagesize()
	a := off &^ (page - 1)
	n += off - a
	n = (n + page - 1) / page * page
	if a+n > len(r.data) {
		n = len(r.data) - a
	}
	if flags == msSync {
		r.syncs.Add(1)
	}
	addr := uintptr(unsafe.Pointer(&r.data[a]))
	errno := syscall.EINTR
	for errno == syscall.EINTR {
		errno = Msync(addr, uintptr(n), flags)
	}
	if errno != 0 {
		return fmt.Errorf("durable: msync %s: %w", r.f.Name(), errno)
	}
	if flags == msSync && AfterBarrier != nil {
		AfterBarrier(r)
	}
	return nil
}

// SyncWords flushes the word span [lo, hi) of the data region: an MS_SYNC
// barrier when sync is set, otherwise MS_ASYNC (see the package comment).
func (r *Region) SyncWords(lo, hi int64, sync bool) error {
	if lo < 0 {
		lo = 0
	}
	if hi > int64(r.mem) {
		hi = int64(r.mem)
	}
	if hi <= lo {
		return nil
	}
	flags := uintptr(msAsync)
	if sync {
		flags = msSync
	}
	return r.msync(r.dataOff+int(lo)*8, int(hi-lo)*8, flags)
}

// SyncMeta is an MS_SYNC barrier over the header and chain areas.
func (r *Region) SyncMeta() error { return r.msync(0, r.dataOff, msSync) }

// SyncAll is an MS_SYNC barrier over the entire mapping.
func (r *Region) SyncAll() error { return r.msync(0, len(r.data), msSync) }

// --- header accessors -------------------------------------------------------

func (r *Region) get(i int) uint64    { return atomic.LoadUint64(&r.hdr[i]) }
func (r *Region) set(i int, v uint64) { atomic.StoreUint64(&r.hdr[i], v) }

// State/SetState track the run lifecycle (StateNew/Running/Done).
func (r *Region) State() uint64     { return r.get(hState) }
func (r *Region) SetState(s uint64) { r.set(hState, s) }

// SetRoot records the run's root capsule (closure id + args) so recovery can
// restart the whole run when no chain step has committed.
func (r *Region) SetRoot(fid uint64, args []uint64) {
	r.set(hRootFid, fid)
	n := len(args)
	if n > maxArgs {
		n = maxArgs
	}
	r.set(hRootNArgs, uint64(n))
	for i := 0; i < n; i++ {
		r.set(hRootArgs0+i, args[i])
	}
}

// Root returns the recorded root capsule.
func (r *Region) Root() (fid uint64, args []uint64) {
	fid = r.get(hRootFid)
	n := int(r.get(hRootNArgs))
	if n > maxArgs {
		n = maxArgs
	}
	args = make([]uint64, n)
	for i := range args {
		args[i] = r.get(hRootArgs0 + i)
	}
	return
}

// CommittedIdx is the number of leading root-chain steps whose effects are
// durably committed (MS_SYNC'd before the index advanced).
func (r *Region) CommittedIdx() int64     { return int64(r.get(hCommitted)) }
func (r *Region) SetCommittedIdx(k int64) { r.set(hCommitted, uint64(k)) }

// HeapHW is the durable heap high-water mark: every word below it has been
// handed to some allocation, so a recovered runtime starts its bump pointer
// here and never clobbers pre-crash effects.
func (r *Region) HeapHW() int64 { return int64(r.get(hHeapHW)) }

// RaiseHeapHW lifts HeapHW to at least hw (monotonic, CAS race-safe).
func (r *Region) RaiseHeapHW(hw int64) {
	for {
		cur := r.get(hHeapHW)
		if int64(cur) >= hw || atomic.CompareAndSwapUint64(&r.hdr[hHeapHW], cur, uint64(hw)) {
			return
		}
	}
}

// SetupHW/SetSetupHW record the heap mark after the first run's setup
// (Build) phase; recovery replays setup allocations below this line.
func (r *Region) SetupHW() int64      { return int64(r.get(hSetupHW)) }
func (r *Region) SetSetupHW(hw int64) { r.set(hSetupHW, uint64(hw)) }

// PersistBase/SetPersistBase record where the per-worker epoch words live.
func (r *Region) PersistBase() int64     { return int64(r.get(hPersist)) }
func (r *Region) SetPersistBase(a int64) { r.set(hPersist, uint64(a)) }

// SetFuncSig/FuncSig guard recovery against re-registering a different
// program: count plus an order-sensitive hash of registered capsule names.
func (r *Region) SetFuncSig(count, hash uint64) {
	r.set(hFuncCount, count)
	r.set(hFuncHash, hash)
}
func (r *Region) FuncSig() (count, hash uint64) { return r.get(hFuncCount), r.get(hFuncHash) }

// --- root chain -------------------------------------------------------------

// RecordChain replaces the recorded root Seq chain. A driver that re-Seqs
// each round overwrites the previous record (latest chain wins); the
// committed index resets to 0 for the new chain. Chains longer than chainCap
// or with oversized args clear the record instead — recovery then falls back
// to restarting from the recorded root, which is always sound for WAR-free
// programs.
func (r *Region) RecordChain(steps []ChainStep) {
	// Invalidate first so a crash mid-write leaves len=0, not a torn chain.
	r.set(hChainLen, 0)
	if len(steps) > chainCap {
		return
	}
	for _, s := range steps {
		if len(s.Args) > maxArgs {
			return
		}
	}
	for i, s := range steps {
		w := r.chain[i*stepWords : (i+1)*stepWords]
		atomic.StoreUint64(&w[0], s.Fid)
		atomic.StoreUint64(&w[1], uint64(len(s.Args)))
		for j, a := range s.Args {
			atomic.StoreUint64(&w[2+j], a)
		}
	}
	r.set(hCommitted, 0)
	r.set(hChainLen, uint64(len(steps)))
}

// ChainSteps returns the recorded chain (nil if none).
func (r *Region) ChainSteps() []ChainStep {
	n := int(r.get(hChainLen))
	if n <= 0 || n > chainCap {
		return nil
	}
	out := make([]ChainStep, n)
	for i := range out {
		w := r.chain[i*stepWords : (i+1)*stepWords]
		na := int(atomic.LoadUint64(&w[1]))
		if na > maxArgs {
			na = maxArgs
		}
		args := make([]uint64, na)
		for j := range args {
			args[j] = atomic.LoadUint64(&w[2+j])
		}
		out[i] = ChainStep{Fid: atomic.LoadUint64(&w[0]), Args: args}
	}
	return out
}

// ClearChain drops any recorded chain (new run beginning).
func (r *Region) ClearChain() { r.set(hChainLen, 0) }
