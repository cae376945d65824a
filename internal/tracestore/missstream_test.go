package tracestore

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultfs"
	"repro/internal/tracesim"
)

// memOut is an in-memory missOut.
type memOut struct{ b []byte }

func (m *memOut) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memOut) WriteAt(p []byte, off int64) (int, error) {
	return copy(m.b[off:], p), nil
}

// encodeMissStream renders a whole stream with the production writer:
// h.Warm entries, the Warm mark, then the rest, in uneven chunks.
func encodeMissStream(h MissHeader, entries []uint64) []byte {
	out := &memOut{}
	w := newMissWriter(out)
	feed := func(log []uint64) {
		for len(log) > 0 {
			n := min(len(log), 1000)
			w.Misses(log[:n])
			log = log[n:]
		}
	}
	feed(entries[:h.Warm])
	w.Warm()
	feed(entries[h.Warm:])
	if err := w.finish(h); err != nil {
		panic(err)
	}
	return out.b
}

// decodeMissStream reads a whole stream with the production reader.
func decodeMissStream(data []byte) (MissHeader, []uint64, error) {
	r, err := newMissReader(bytes.NewReader(data))
	if err != nil {
		return MissHeader{}, nil, err
	}
	entries := []uint64{}
	for {
		b, ok := r.NextMisses()
		if !ok {
			break
		}
		entries = append(entries, b...)
	}
	return r.Header(), entries, r.Err()
}

func testMissHeader() MissHeader {
	return MissHeader{
		Hierarchy: tracesim.DefaultConfig(0).Hierarchy(),
		Passes:    2,
		Upper: tracesim.Upper{
			Accesses:   1000,
			L1:         cache.Stats{Hits: 600, Misses: 400, Evictions: 390, DirtyWritebacks: 12},
			L2:         cache.Stats{Hits: 100, Misses: 300, Evictions: 250, DirtyWritebacks: 7},
			Prefetches: 44,
			HitPS:      123456,
		},
	}
}

// testMissEntries is a log with sequential runs, random lines, every
// opcode and the extremes of the entry space, crossing block bounds.
func testMissEntries(n int) []uint64 {
	out := make([]uint64, n)
	x := uint64(88172645463325252)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch i % 5 {
		case 0, 1:
			out[i] = uint64(i)<<2 | x&3
		case 2:
			out[i] = x
		case 3:
			out[i] = ^uint64(0) - x%3
		default:
			out[i] = x % 1024
		}
	}
	return out
}

func TestMissStreamRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 1000, missBlockEntries, 2*missBlockEntries + 5} {
		h := testMissHeader()
		entries := testMissEntries(n)
		h.Warm = int64(n / 3)
		gotH, got, err := decodeMissStream(encodeMissStream(h, entries))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		h.Entries = int64(n)
		if gotH != h || !slices.Equal(got, entries) {
			t.Fatalf("n=%d: round trip changed the stream: header %+v want %+v", n, gotH, h)
		}
	}
}

// TestMissStreamRejectsDamage: every kind of damage surfaces as an
// error from the header or from the read, never as entries.
func TestMissStreamRejectsDamage(t *testing.T) {
	h := testMissHeader()
	h.Warm = 100
	good := encodeMissStream(h, testMissEntries(3*missBlockEntries))
	flip := func(off int) []byte {
		b := bytes.Clone(good)
		b[off] ^= 0x10
		return b
	}
	wrongVersion := bytes.Clone(good)
	wrongVersion[8]++
	cases := map[string][]byte{
		"truncated-mid-block":   good[:len(good)/2],
		"truncated-at-block":    good[:len(good)-missBlockEntries],
		"truncated-header":      good[:missHeaderSize-1],
		"bit-flip-in-header":    flip(20),
		"bit-flip-in-block":     flip(missHeaderSize + 1000),
		"bit-flip-in-checksum":  flip(len(good) - 1),
		"wrong-version":         wrongVersion,
		"trailing-extra-blocks": append(bytes.Clone(good), good[missHeaderSize:]...),
	}
	for name, data := range cases {
		if _, _, err := decodeMissStream(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStoreMissStreams(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Ingest(strings.NewReader("64,R\n128,W\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenMisses(meta.ID, "v1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unrecorded variant: %v", err)
	}
	if _, err := st.CreateMisses(meta.ID, "../x"); err == nil {
		t.Fatal("path-like variant accepted")
	}
	entries := testMissEntries(20000)
	h := testMissHeader()
	for _, variant := range []string{"v1", "v2"} {
		w, err := st.CreateMisses(meta.ID, variant)
		if err != nil {
			t.Fatal(err)
		}
		w.Misses(entries[:500])
		w.Warm()
		w.Misses(entries[500:])
		if err := w.Commit(h); err != nil {
			t.Fatal(err)
		}
	}
	r, err := st.OpenMisses(meta.ID, "v1")
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		b, ok := r.NextMisses()
		if !ok {
			break
		}
		got = append(got, b...)
	}
	r.Close()
	if r.Err() != nil || !slices.Equal(got, entries) || r.Header().Warm != 500 || r.Header().Upper != h.Upper {
		t.Fatalf("stored stream: err %v, %d entries, header %+v", r.Err(), len(got), r.Header())
	}

	// A reopened store does not list the streams, but still finds them.
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	// Delete takes every variant with the trace.
	if err := st.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	left, _ := os.ReadDir(filepath.Join(dir, missDirName))
	if len(left) != 0 {
		t.Fatalf("delete left %d streams", len(left))
	}
}

// TestMissStreamCommitFaults: a full disk or a deleted trace files no
// stream and leaves no temp file, and a crash's temp file is swept at
// the next open.
func TestMissStreamCommitFaults(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(nil)
	st, err := OpenFS(fault, dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Ingest(strings.NewReader("64,R\n128,W\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.CreateMisses(meta.ID, "v")
	if err != nil {
		t.Fatal(err)
	}
	fault.SetErr(faultfs.ENOSPC)
	fault.FailAfterWrites(1, false)
	w.Misses(testMissEntries(3 * missBlockEntries))
	if err := w.Commit(testMissHeader()); !errors.Is(err, faultfs.ENOSPC) {
		t.Fatalf("commit on a full disk: %v", err)
	}
	fault.Reset()
	if _, err := st.OpenMisses(meta.ID, "v"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed recording filed a stream: %v", err)
	}

	w, err = st.CreateMisses(meta.ID, "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(testMissHeader()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("commit after delete: %v", err)
	}
	if _, err := st.OpenMisses(meta.ID, "v"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a deleted trace got a stream: %v", err)
	}

	if _, err := st.CreateMisses(meta.ID, "crashed"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	all, _ := os.ReadDir(dir)
	for _, e := range all {
		if strings.HasPrefix(e.Name(), missTempPrefix) {
			t.Fatalf("temp file %s survived", e.Name())
		}
	}
}

// FuzzMissStream: no input panics the reader, and every stream it
// accepts survives an encode→decode round trip unchanged.
func FuzzMissStream(f *testing.F) {
	for _, s := range missStreamSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		checkMissRoundTrip(t, data)
	})
}

func checkMissRoundTrip(t *testing.T, data []byte) {
	h, entries, err := decodeMissStream(data)
	if err != nil {
		return
	}
	h2, entries2, err := decodeMissStream(encodeMissStream(h, entries))
	if err != nil || h2 != h || !slices.Equal(entries2, entries) {
		t.Fatalf("accepted stream does not round-trip: %v; header %+v vs %+v", err, h2, h)
	}
}

// missStreamSeeds: valid streams (empty, one block, two blocks with a
// warm-up), a truncated one, a bit-flipped one, one of another
// version, and junk.
func missStreamSeeds() [][]byte {
	h := testMissHeader()
	empty := encodeMissStream(h, nil)
	one := encodeMissStream(h, testMissEntries(40))
	h.Warm = 7
	two := encodeMissStream(h, testMissEntries(missBlockEntries+9))
	flipped := bytes.Clone(one)
	flipped[len(flipped)-9] ^= 1
	version := bytes.Clone(one)
	version[8] = 2
	return [][]byte{empty, one, two, one[:len(one)-5], flipped, version, []byte(missMagic), {0xff}}
}
