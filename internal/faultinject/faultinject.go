// Package faultinject interposes deterministic failures on a file handle
// so the storage layer's error paths can be exercised by tests instead of
// waiting for real disks to misbehave. An Injector wraps an *os.File into
// a File that counts write, fsync and truncate operations and fails the
// ones a Plan names: a clean write error on the Nth write, a torn (short)
// write that leaves a partial record on disk, an fsync error window, and a
// failing truncate (which poisons the journal's rollback).
//
// The wrapper's method set structurally satisfies storage.File, so a test
// wires it in with storage.JournalOptions.WrapFile without this package
// importing storage (tests in package storage could not use it otherwise —
// the import would be a cycle).
//
// Faults are deterministic by construction — plans name operation indices,
// not probabilities — so a given plan always fails the same operations in
// the same order.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjected marks every fault this package produces. Tests assert with
// errors.Is that an observed failure is the injected one and not a real
// I/O error hiding behind it.
var ErrInjected = errors.New("faultinject: injected fault")

// Plan names the operations to fail. Operation indices are 1-based and
// count per wrapped file, writes (Write and WriteAt combined), fsyncs and
// truncates separately. The zero Plan injects nothing.
type Plan struct {
	// FailWrites lists write indices that fail cleanly: no bytes reach the
	// file and the call returns ErrInjected.
	FailWrites []int

	// TornWrites maps a write index to the number of leading bytes that do
	// reach the file before the call fails — a torn write, the shape a
	// power loss mid-write leaves behind. Bytes beyond the buffer length
	// are clamped.
	TornWrites map[int]int

	// FailSyncFrom / FailSyncCount open a window of consecutive fsync
	// failures: syncs FailSyncFrom through FailSyncFrom+FailSyncCount-1
	// (1-based) return ErrInjected, later ones succeed. FailSyncCount <= 0
	// with FailSyncFrom > 0 means every sync from that point fails.
	FailSyncFrom  int
	FailSyncCount int

	// FailTruncates lists truncate indices that fail — aimed at the
	// journal's rollback path, which poisons the journal when it cannot
	// restore the pre-append size.
	FailTruncates []int
}

// Injector applies one Plan to the files it wraps. All wrapped files share
// the injector's operation counters, so a plan keeps addressing the same
// global operation sequence across a journal compaction's file swap.
type Injector struct {
	mu        sync.Mutex
	plan      Plan
	writes    int
	syncs     int
	truncates int
	injected  int
}

// New builds an Injector for the given plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan}
}

// Stats is a snapshot of an Injector's operation and fault counters.
type Stats struct {
	Writes    int // write operations observed (Write + WriteAt)
	Syncs     int // fsync operations observed
	Truncates int // truncate operations observed
	Injected  int // faults actually injected
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{Writes: in.writes, Syncs: in.syncs, Truncates: in.truncates, Injected: in.injected}
}

// SetPlan replaces the injector's plan and resets its operation counters
// (the injected-fault count is kept). Tests use it to open a store with no
// faults armed and then address operations relative to the point of
// interest — "the first write after this" — instead of counting every
// operation the open performed.
func (in *Injector) SetPlan(plan Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan = plan
	in.writes, in.syncs, in.truncates = 0, 0, 0
}

// Wrap interposes the injector on f. The result satisfies storage.File.
func (in *Injector) Wrap(f *os.File) *File {
	return &File{f: f, in: in}
}

// checkWrite advances the write counter and reports how many of n bytes
// the write may pass through: n (no fault), a clamped torn length, or an
// error for a clean failure.
func (in *Injector) checkWrite(n int) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writes++
	idx := in.writes
	if torn, ok := in.plan.TornWrites[idx]; ok {
		in.injected++
		if torn > n {
			torn = n
		}
		return torn, fmt.Errorf("%w: torn write %d (%d of %d bytes)", ErrInjected, idx, torn, n)
	}
	for _, w := range in.plan.FailWrites {
		if w == idx {
			in.injected++
			return 0, fmt.Errorf("%w: write %d", ErrInjected, idx)
		}
	}
	return n, nil
}

func (in *Injector) checkSync() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.syncs++
	from := in.plan.FailSyncFrom
	if from <= 0 || in.syncs < from {
		return nil
	}
	if count := in.plan.FailSyncCount; count > 0 && in.syncs >= from+count {
		return nil
	}
	in.injected++
	return fmt.Errorf("%w: fsync %d", ErrInjected, in.syncs)
}

func (in *Injector) checkTruncate() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.truncates++
	for _, t := range in.plan.FailTruncates {
		if t == in.truncates {
			in.injected++
			return fmt.Errorf("%w: truncate %d", ErrInjected, in.truncates)
		}
	}
	return nil
}

// File is an *os.File with the injector's faults interposed on its write,
// sync and truncate paths. Reads, seeks and stats pass through untouched —
// the journal's replay and compaction walks must see exactly the bytes the
// faults left behind.
type File struct {
	f  *os.File
	in *Injector
}

// Read passes through to the underlying file.
func (f *File) Read(p []byte) (int, error) { return f.f.Read(p) }

// ReadAt passes through to the underlying file.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// Seek passes through to the underlying file.
func (f *File) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }

// Stat passes through to the underlying file.
func (f *File) Stat() (os.FileInfo, error) { return f.f.Stat() }

// Close passes through to the underlying file.
func (f *File) Close() error { return f.f.Close() }

// Write consults the plan, then writes whatever portion it allowed.
func (f *File) Write(p []byte) (int, error) {
	allow, ferr := f.in.checkWrite(len(p))
	if ferr != nil && allow <= 0 {
		return 0, ferr
	}
	n, err := f.f.Write(p[:allow])
	if err != nil {
		return n, err
	}
	return n, ferr
}

// WriteAt consults the plan, then writes whatever portion it allowed at
// off — a torn write leaves the allowed prefix on disk, exactly like a
// crash between the data reaching the page cache and the rest following.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	allow, ferr := f.in.checkWrite(len(p))
	if ferr != nil && allow <= 0 {
		return 0, ferr
	}
	n, err := f.f.WriteAt(p[:allow], off)
	if err != nil {
		return n, err
	}
	return n, ferr
}

// Sync consults the plan before syncing; an injected fsync error reaches
// the caller after the real sync still ran, modeling a device that wrote
// the data but reported failure (the conservative read of a sync error).
func (f *File) Sync() error {
	if err := f.in.checkSync(); err != nil {
		f.f.Sync()
		return err
	}
	return f.f.Sync()
}

// Truncate consults the plan; an injected truncate error suppresses the
// real truncate, so the file genuinely keeps the bytes the caller tried to
// roll back.
func (f *File) Truncate(size int64) error {
	if err := f.in.checkTruncate(); err != nil {
		return err
	}
	return f.f.Truncate(size)
}
