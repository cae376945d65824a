package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	f, err := fsys.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "b"))
	if err != nil || string(buf) != "hello" {
		t.Fatalf("read back %q, %v", buf, err)
	}
}

func TestFailAfterWrites(t *testing.T) {
	dir := t.TempDir()
	fault := New(nil)
	fault.FailAfterWrites(2, false)

	f, err := fault.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd write err = %v, want ErrInjected", err)
	}
	// The fault latches: later writes keep failing, like a dead disk.
	if _, err := f.Write([]byte("still")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip write err = %v, want ErrInjected", err)
	}
	if !fault.Tripped() {
		t.Fatal("fault did not report tripped")
	}
}

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	fault := New(nil)
	fault.FailAfterWrites(0, true)

	f, err := fault.Create(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	if _, err := f.Write(payload); err == nil {
		t.Fatal("torn write reported success")
	}
	f.Close()
	buf, err := os.ReadFile(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != len(payload)/2 {
		t.Fatalf("torn write left %d bytes, want %d", len(buf), len(payload)/2)
	}
}

func TestENOSPCAndRenameFailpoint(t *testing.T) {
	dir := t.TempDir()
	fault := New(nil)
	fault.SetErr(ENOSPC)
	fault.FailAfterRenames(0)

	if err := os.WriteFile(filepath.Join(dir, "src"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := fault.Rename(filepath.Join(dir, "src"), filepath.Join(dir, "dst"))
	if !errors.Is(err, ENOSPC) {
		t.Fatalf("rename err = %v, want ENOSPC", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "dst")); statErr == nil {
		t.Fatal("failed rename still created the destination")
	}
}

func TestSyncFailpointAndReset(t *testing.T) {
	dir := t.TempDir()
	fault := New(nil)
	fault.FailAfterSyncs(0)

	f, err := fault.Create(filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync err = %v, want ErrInjected", err)
	}
	fault.Reset()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after Reset: %v", err)
	}
	if fault.Tripped() {
		t.Fatal("Reset did not clear the tripped latch")
	}
}

func TestFailAfterReads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	fault := New(nil)
	fault.FailAfterReads(2)

	f, err := fault.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 2)
	for i := 0; i < 2; i++ {
		if _, err := f.Read(buf); err != nil {
			t.Fatalf("read %d failed early: %v", i, err)
		}
	}
	if _, err := f.Read(buf); !errors.Is(err, EIO) {
		t.Fatalf("3rd read err = %v, want EIO", err)
	}
	// Every file opened through the Fault shares the latched failpoint.
	g, err := fault.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.ReadAt(buf, 0); !errors.Is(err, EIO) {
		t.Fatalf("post-trip ReadAt err = %v, want EIO", err)
	}
	// Writes are not armed, so they keep working.
	w, err := fault.Create(filepath.Join(dir, "w"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write([]byte("ok")); err != nil {
		t.Fatalf("unarmed write failed: %v", err)
	}

	fault.SetErr(ENOSPC)
	if _, err := g.Read(buf); !errors.Is(err, ENOSPC) {
		t.Fatalf("read err after SetErr = %v, want ENOSPC", err)
	}
	fault.Reset()
	if _, err := g.Read(buf); err != nil {
		t.Fatalf("read after Reset: %v", err)
	}
}

func TestSlowWrites(t *testing.T) {
	dir := t.TempDir()
	fault := New(nil)
	fault.SlowWrites(20 * time.Millisecond)

	f, err := fault.Create(filepath.Join(dir, "slow"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("slow write completed in %v, want >= 20ms of injected latency", d)
	}
}
