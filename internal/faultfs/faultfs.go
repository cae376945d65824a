// Package faultfs is the fault-injection harness under the durable
// stores: a filesystem interface the journal and trace store write
// through, one passthrough implementation over the real OS, and one
// failpoint implementation that can kill the store mid-write — after
// the Nth write, with a torn (partial) final write, with ENOSPC, or
// with injected latency — or fail its reads after the Nth.
//
// The point is the paper-adjacent durability claim (Fridman et al.,
// arXiv:2109.02166): recovery must be *proven under injected
// failures*, not assumed. Tests wrap a store's filesystem in a Fault,
// schedule a failpoint, drive the store into it, then reopen the
// directory with the plain OS filesystem and assert the recovery
// invariants — no corrupt entry served, no accepted record lost.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sync"
	"syscall"
	"time"
)

// File is the subset of *os.File the durable stores use.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.ReaderAt
	io.WriterAt
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Stat() (os.FileInfo, error)
	Name() string
	Truncate(size int64) error
}

// FS is the filesystem surface the durable stores write through.
// Production code uses OS; fault-injection tests substitute a Fault.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Create(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
}

// OS is the passthrough filesystem over the real OS.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Stat implements FS.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// ErrInjected is the default error a tripped failpoint returns; tests
// can substitute ENOSPC (or anything else) via SetErr.
var ErrInjected = errors.New("faultfs: injected fault")

// ENOSPC is the "disk full" errno, exported so tests read naturally.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
var ENOSPC = syscall.ENOSPC

// EIO is the I/O-error errno, the default of a tripped read failpoint.
var EIO = syscall.EIO

// Fault wraps an FS with failpoints. The zero value (over a nil FS)
// is unusable; build one with New. All failpoints count operations
// across every file opened through the Fault, which is what lets a
// test say "the store dies on its 3rd write, wherever that lands".
// Once a failpoint trips the Fault stays failed — like a crashed or
// full disk — until Reset.
type Fault struct {
	fs FS

	mu sync.Mutex
	// writesLeft counts successful writes remaining before writes
	// fail; -1 means unlimited.
	writesLeft int64
	// torn: when the write failpoint trips, write a prefix of the
	// buffer through first — a torn write, the crash-mid-append shape.
	torn bool
	// syncsLeft / renamesLeft / readsLeft mirror writesLeft for Sync,
	// Rename and Read.
	syncsLeft   int64
	renamesLeft int64
	readsLeft   int64
	// err is what a tripped failpoint returns; nil means the default:
	// EIO for reads, ErrInjected for everything else.
	err error
	// slow delays every write (slow-I/O mode).
	slow time.Duration
	// tripped latches once any failpoint fires.
	tripped bool
}

// New wraps base (nil: the real OS) with no failpoints armed.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func New(base FS) *Fault {
	if base == nil {
		base = OS{}
	}
	return &Fault{fs: base, writesLeft: -1, syncsLeft: -1, renamesLeft: -1, readsLeft: -1}
}

// FailAfterWrites arms the write failpoint: the next n writes succeed,
// every write after fails. With torn set the failing write first
// writes half its buffer — the torn-tail shape a power cut leaves.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) FailAfterWrites(n int, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writesLeft = int64(n)
	f.torn = torn
}

// FailAfterSyncs arms the fsync failpoint after n successful syncs.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) FailAfterSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncsLeft = int64(n)
}

// FailAfterRenames arms the rename failpoint after n successful
// renames — the atomic-commit step of temp-file + rename stores.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) FailAfterRenames(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renamesLeft = int64(n)
}

// FailAfterReads arms the read failpoint: after n successful reads,
// Read and ReadAt on every file opened through the Fault fail with EIO
// (or the error SetErr set).
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) FailAfterReads(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readsLeft = int64(n)
}

// SetErr substitutes the error tripped failpoints return (e.g.
// faultfs.ENOSPC).
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) SetErr(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

// SlowWrites injects d of latency before every write.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) SlowWrites(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slow = d
}

// Reset disarms every failpoint and clears the tripped latch.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writesLeft, f.syncsLeft, f.renamesLeft, f.readsLeft = -1, -1, -1, -1
	f.torn, f.tripped = false, false
	f.slow = 0
	f.err = nil
}

// Tripped reports whether any failpoint has fired.
//
//simd:oracle fault-injection harness; the journal, tracestore and service crash tests drive it
func (f *Fault) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// admitWrite consumes one write credit. It returns the injected error
// (and whether to tear) when the failpoint trips.
func (f *Fault) admitWrite(n int) (tear int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.slow > 0 {
		time.Sleep(f.slow)
	}
	if f.writesLeft < 0 {
		return 0, nil
	}
	if f.writesLeft == 0 || f.tripped {
		f.tripped = true
		if f.torn {
			return n / 2, f.errOr(ErrInjected)
		}
		return 0, f.errOr(ErrInjected)
	}
	f.writesLeft--
	return 0, nil
}

func (f *Fault) admitSync() error { return f.admit(&f.syncsLeft, ErrInjected) }

func (f *Fault) admitRename() error { return f.admit(&f.renamesLeft, ErrInjected) }

func (f *Fault) admitRead() error { return f.admit(&f.readsLeft, EIO) }

// admit consumes one credit of the failpoint whose counter is left
// (-1: unarmed). A tripped failpoint returns the set error, or def.
func (f *Fault) admit(left *int64, def error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *left < 0 {
		return nil
	}
	if *left == 0 || f.tripped {
		f.tripped = true
		return f.errOr(def)
	}
	*left--
	return nil
}

// errOr returns the error SetErr set, or def. Callers hold mu.
func (f *Fault) errOr(def error) error {
	if f.err != nil {
		return f.err
	}
	return def
}

// MkdirAll implements FS.
func (f *Fault) MkdirAll(path string, perm os.FileMode) error { return f.fs.MkdirAll(path, perm) }

// Create implements FS.
func (f *Fault) Create(name string) (File, error) {
	file, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fault: f}, nil
}

// CreateTemp implements FS.
func (f *Fault) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fault: f}, nil
}

// Open implements FS.
func (f *Fault) Open(name string) (File, error) {
	file, err := f.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fault: f}, nil
}

// OpenFile implements FS.
func (f *Fault) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fault: f}, nil
}

// Rename implements FS, subject to the rename failpoint.
func (f *Fault) Rename(oldpath, newpath string) error {
	if err := f.admitRename(); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.fs.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *Fault) Remove(name string) error { return f.fs.Remove(name) }

// ReadDir implements FS.
func (f *Fault) ReadDir(name string) ([]fs.DirEntry, error) { return f.fs.ReadDir(name) }

// Stat implements FS.
func (f *Fault) Stat(name string) (os.FileInfo, error) { return f.fs.Stat(name) }

// faultFile routes reads, writes and syncs through the Fault's
// failpoints.
type faultFile struct {
	File
	fault *Fault
}

func (ff *faultFile) Write(p []byte) (int, error) {
	tear, err := ff.fault.admitWrite(len(p))
	if err != nil {
		n := 0
		if tear > 0 {
			// A torn write: part of the buffer lands before the fault.
			n, _ = ff.File.Write(p[:tear])
		}
		return n, &os.PathError{Op: "write", Path: ff.Name(), Err: err}
	}
	return ff.File.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	tear, err := ff.fault.admitWrite(len(p))
	if err != nil {
		n := 0
		if tear > 0 {
			n, _ = ff.File.WriteAt(p[:tear], off)
		}
		return n, &os.PathError{Op: "writeat", Path: ff.Name(), Err: err}
	}
	return ff.File.WriteAt(p, off)
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.fault.admitRead(); err != nil {
		return 0, &os.PathError{Op: "read", Path: ff.Name(), Err: err}
	}
	return ff.File.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.fault.admitRead(); err != nil {
		return 0, &os.PathError{Op: "readat", Path: ff.Name(), Err: err}
	}
	return ff.File.ReadAt(p, off)
}

func (ff *faultFile) Sync() error {
	if err := ff.fault.admitSync(); err != nil {
		return &os.PathError{Op: "sync", Path: ff.Name(), Err: err}
	}
	return ff.File.Sync()
}
