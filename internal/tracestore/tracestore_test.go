package tracestore

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultfs"
	"repro/internal/tracesim"
	"repro/internal/units"
)

// testAccesses builds a deterministic mixed read/write stream with
// some spatial structure (so delta encoding is exercised in both
// short and long forms).
func testAccesses(n int) []tracesim.Access {
	rng := rand.New(rand.NewSource(7))
	out := make([]tracesim.Access, n)
	addr := uint64(1 << 20)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			addr += 64 // sequential neighbour
		case 1:
			addr += uint64(rng.Intn(4096))
		default:
			addr = uint64(rng.Intn(1 << 24))
		}
		kind := cache.Read
		if rng.Intn(3) == 0 {
			kind = cache.Write
		}
		out[i] = tracesim.Access{Addr: addr, Kind: kind}
	}
	return out
}

func encodeAll(t *testing.T, accs []tracesim.Access) (*bytes.Buffer, Summary, string) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, a := range accs {
		enc.Append(a)
	}
	sum, id, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &buf, sum, id
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	accs := testAccesses(3 * blockAccesses / 2) // spans a block boundary
	buf, sum, _ := encodeAll(t, accs)

	if sum.Accesses != int64(len(accs)) {
		t.Fatalf("summary accesses %d, want %d", sum.Accesses, len(accs))
	}
	if sum.Reads+sum.Writes != sum.Accesses {
		t.Fatalf("read/write mix %d+%d != %d", sum.Reads, sum.Writes, sum.Accesses)
	}
	lines := map[uint64]struct{}{}
	minA, maxA := ^uint64(0), uint64(0)
	for _, a := range accs {
		lines[a.Addr/uint64(units.CacheLine)] = struct{}{}
		if a.Addr < minA {
			minA = a.Addr
		}
		if a.Addr > maxA {
			maxA = a.Addr
		}
	}
	if sum.Lines != int64(len(lines)) || sum.MinAddr != minA || sum.MaxAddr != maxA {
		t.Fatalf("summary %+v disagrees with stream (lines %d, min %#x, max %#x)",
			sum, len(lines), minA, maxA)
	}

	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	got := decodeAll(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("decoded %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Fatalf("access %d: got %+v want %+v", i, got[i], accs[i])
		}
	}
}

// renderNDJSON and renderCSV spell the same stream in the two text
// dialects (mixed number/hex spellings to prove canonicalization).
func renderNDJSON(accs []tracesim.Access) []byte {
	var b bytes.Buffer
	for i, a := range accs {
		kind := "R"
		if a.Kind == cache.Write {
			kind = "W"
		}
		if i%2 == 0 {
			fmt.Fprintf(&b, "{\"addr\": %d, \"kind\": %q}\n", a.Addr, kind)
		} else {
			fmt.Fprintf(&b, "{\"addr\": \"0x%x\", \"kind\": %q}\n", a.Addr, kind)
		}
	}
	return b.Bytes()
}

func renderCSV(accs []tracesim.Access) []byte {
	var b bytes.Buffer
	b.WriteString("addr,kind\n# comment line\n")
	for _, a := range accs {
		kind := "R"
		if a.Kind == cache.Write {
			kind = "w" // case-insensitive
		}
		fmt.Fprintf(&b, "%d,%s\n", a.Addr, kind)
	}
	return b.Bytes()
}

func gzipped(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestIngestFormatsDedupe is the content-address contract: every
// upload format and compression of the same access stream ingests to
// the same id, and only the first write creates a file.
func TestIngestFormatsDedupe(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	accs := testAccesses(5000)
	binBuf, _, wantID := encodeAll(t, accs)
	binFile := append(encodeHeaderFor(t, accs), binBuf.Bytes()...)

	uploads := []struct {
		name string
		body []byte
	}{
		{"ndjson", renderNDJSON(accs)},
		{"ndjson.gz", gzipped(t, renderNDJSON(accs))},
		{"csv", renderCSV(accs)},
		{"csv.gz", gzipped(t, renderCSV(accs))},
		{"binary", binFile},
		{"binary.gz", gzipped(t, binFile)},
	}
	for i, up := range uploads {
		meta, existed, err := st.Ingest(bytes.NewReader(up.body), 0)
		if err != nil {
			t.Fatalf("%s: %v", up.name, err)
		}
		if meta.ID != wantID {
			t.Fatalf("%s: id %s, want %s", up.name, meta.ID, wantID)
		}
		if existed != (i > 0) {
			t.Fatalf("%s: existed=%v, want %v", up.name, existed, i > 0)
		}
		if meta.Accesses != int64(len(accs)) {
			t.Fatalf("%s: %d accesses, want %d", up.name, meta.Accesses, len(accs))
		}
	}
	files, err := filepath.Glob(filepath.Join(st.dir, "*.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("store holds %d files after deduped uploads, want 1: %v", len(files), files)
	}
	if stray, _ := filepath.Glob(filepath.Join(st.dir, ".ingest-*")); len(stray) != 0 {
		t.Fatalf("temp files left behind: %v", stray)
	}
}

// encodeHeaderFor builds the header bytes matching a stream (test
// helper for synthesizing complete binary files).
func encodeHeaderFor(t *testing.T, accs []tracesim.Access) []byte {
	t.Helper()
	enc := NewEncoder(bytes.NewBuffer(nil))
	for _, a := range accs {
		enc.Append(a)
	}
	sum, _, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	h := encodeHeader(sum)
	return h[:]
}

// TestProviderMatchesGenerator replays the same stream once from the
// in-memory generator and once from the store, in one pass and in two
// (exercising Reset), and requires identical results — the pinned
// equivalence the replay service builds on.
func TestProviderMatchesGenerator(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen := func() tracesim.BlockSource {
		g, err := tracesim.NewUniformRandom(0, 8<<20, 120000, cache.Read, 42)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, a := range decodeAll(gen()) {
		enc.Append(a)
	}
	sum, _, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	hdr := encodeHeader(sum)
	meta, _, err := st.Ingest(bytes.NewReader(append(hdr[:], buf.Bytes()...)), 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := tracesim.DefaultConfig(4 << 20)
	// generatorRun replays a fresh generator through the scalar
	// simulator: the reference for the stored-trace runs.
	generatorRun := func(passes int) tracesim.Result {
		ref, err := tracesim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(gen(), passes)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	// Scalar replay from the store.
	prov, err := st.Open(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	scalar, err := tracesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scalar.Run(prov.Blocks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := prov.Err(); err != nil {
		t.Fatal(err)
	}
	if want := generatorRun(1); got != want {
		t.Fatalf("stored scalar replay diverges:\n got %+v\nwant %+v", got, want)
	}

	// Multi-pass replay from the store, exercising Reset.
	prov2, err := st.Open(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer prov2.Close()
	warm, err := tracesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = warm.Run(prov2.Blocks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := prov2.Err(); err != nil {
		t.Fatal(err)
	}
	if want := generatorRun(2); got != want {
		t.Fatalf("stored multi-pass replay diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestReopenDurability(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Ingest(bytes.NewReader(renderCSV(testAccesses(2000))), 0)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get(meta.ID)
	if !ok {
		t.Fatalf("trace %s lost across reopen", meta.ID)
	}
	if got != meta {
		t.Fatalf("reopened meta %+v != ingested %+v", got, meta)
	}
	if l := st2.List(); len(l) != 1 || l[0].ID != meta.ID {
		t.Fatalf("List after reopen: %+v", l)
	}
	count, bytesTotal := st2.Totals()
	if count != 1 || bytesTotal != meta.FileBytes {
		t.Fatalf("Totals = (%d, %d), want (1, %d)", count, bytesTotal, meta.FileBytes)
	}
}

func TestDelete(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Ingest(bytes.NewReader(renderCSV(testAccesses(100))), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(meta.ID); ok {
		t.Fatal("deleted trace still indexed")
	}
	if _, err := st.Open(meta.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open after delete: %v, want ErrNotFound", err)
	}
	if err := st.Delete(meta.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v, want ErrNotFound", err)
	}
	if files, _ := filepath.Glob(filepath.Join(st.dir, "*.trc")); len(files) != 0 {
		t.Fatalf("file survives delete: %v", files)
	}
	// Re-ingesting after delete is a fresh write, not a dedupe.
	if _, existed, err := st.Ingest(bytes.NewReader(renderCSV(testAccesses(100))), 0); err != nil || existed {
		t.Fatalf("re-ingest after delete: existed=%v err=%v", existed, err)
	}
}

func TestCorruptedBlockDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Ingest(bytes.NewReader(renderCSV(testAccesses(4000))), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, meta.ID+".trc")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+len(raw)/2] ^= 0xff // flip a byte mid-block
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	prov, err := st.Open(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	decodeAll(prov.Blocks())
	if prov.Err() == nil {
		t.Fatal("corrupted block replayed without error")
	}
	if !strings.Contains(prov.Err().Error(), "checksum") {
		t.Fatalf("error %v does not name the checksum", prov.Err())
	}
}

func TestIngestErrors(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body, want string
	}{
		{"empty", "", "empty trace"},
		{"comments-only", "# nothing here\n\n", "empty trace"},
		{"bad-addr", "addr,kind\nnotanumber,R\n", "line 2"},
		{"bad-kind", "123,X\n", "access kind"},
		{"bad-json", "{\"addr\": }\n", "line 1"},
		{"json-missing-addr", "{\"kind\": \"R\"}\n", "missing addr"},
	}
	for _, c := range cases {
		if _, _, err := st.Ingest(strings.NewReader(c.body), 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want substring %q", c.name, err, c.want)
		}
	}
	if stray, _ := filepath.Glob(filepath.Join(st.dir, ".ingest-*")); len(stray) != 0 {
		t.Fatalf("failed ingests left temp files: %v", stray)
	}
}

func TestExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seq.trc")
	g, err := tracesim.NewSequential(0, 1<<20, 64, cache.Read)
	if err != nil {
		t.Fatal(err)
	}
	sum, id, err := Export(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accesses != (1<<20)/64 {
		t.Fatalf("exported %d accesses, want %d", sum.Accesses, (1<<20)/64)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, existed, err := st.Ingest(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if existed || meta.ID != id {
		t.Fatalf("ingest of export: id %s existed=%v, want %s false", meta.ID, existed, id)
	}
}

// TestIngestDecodedByteLimit pins the gzip-bomb defence: the limit
// applies to the DECODED stream, so a small compressed upload cannot
// expand past it, while streams within the limit still ingest.
func TestIngestDecodedByteLimit(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// ~600 KB of text compressing to a few KB.
	big := bytes.Repeat([]byte("4096,R\n"), 90000)
	bomb := gzipped(t, big)
	if int64(len(bomb)) >= 64<<10 {
		t.Fatalf("test bomb did not compress: %d bytes", len(bomb))
	}
	if _, _, err := st.Ingest(bytes.NewReader(bomb), 64<<10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("gzip bomb ingested past the decoded limit: %v", err)
	}
	// The same limit admits a small gzipped trace.
	small := gzipped(t, renderCSV(testAccesses(500)))
	if _, _, err := st.Ingest(bytes.NewReader(small), 64<<10); err != nil {
		t.Fatalf("small gzipped trace rejected: %v", err)
	}
	// Uncompressed streams are bounded too.
	if _, _, err := st.Ingest(bytes.NewReader(big), 64<<10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized plain stream ingested: %v", err)
	}
	if stray, _ := filepath.Glob(filepath.Join(st.dir, ".ingest-*")); len(stray) != 0 {
		t.Fatalf("limited ingests left temp files: %v", stray)
	}
}

// TestReopenQuarantinesTruncatedTail simulates a crash mid-ingest
// that somehow left a visible but truncated .trc file (e.g. a torn
// rename on a non-atomic filesystem): reopening must quarantine the
// damaged file and keep serving every intact trace.
func TestReopenQuarantinesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := st.Ingest(bytes.NewReader(renderCSV(testAccesses(3000))), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a second trace file whose header is cut mid-way — the
	// shape a torn write leaves.
	buf, err := os.ReadFile(filepath.Join(dir, good.ID+".trc"))
	if err != nil {
		t.Fatal(err)
	}
	fakeID := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, fakeID+".trc"), buf[:headerSize/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// And a third with a valid-length but scribbled header (CRC fails).
	rot := append([]byte(nil), buf...)
	rot[10] ^= 0xff
	rotID := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(dir, rotID+".trc"), rot, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(good.ID); !ok {
		t.Fatal("intact trace lost while quarantining a damaged neighbour")
	}
	if _, ok := st2.Get(fakeID); ok {
		t.Fatal("truncated trace served")
	}
	if _, ok := st2.Get(rotID); ok {
		t.Fatal("corrupt-header trace served")
	}
	if q := st2.Quarantined(); q != 2 {
		t.Fatalf("quarantined %d files, want 2", q)
	}
	for _, id := range []string{fakeID, rotID} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", id+".trc")); err != nil {
			t.Fatalf("quarantined file %s missing: %v", id, err)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".trc")); !os.IsNotExist(err) {
			t.Fatalf("damaged file %s still in the live directory", id)
		}
	}
	// A re-upload of content whose file was quarantined under a fake
	// name is a fresh ingest, not a dedupe against damaged data.
	if l := st2.List(); len(l) != 1 || l[0].ID != good.ID {
		t.Fatalf("List after quarantine: %+v", l)
	}
}

// TestReopenSweepsStaleIngestTemp: a crash mid-ingest leaves only a
// temp file; reopening must remove it and index nothing.
func TestReopenSweepsStaleIngestTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".ingest-stale1"), []byte("half a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st.Totals(); n != 0 {
		t.Fatalf("stale temp indexed as a trace (%d)", n)
	}
	if _, err := os.Stat(filepath.Join(dir, ".ingest-stale1")); !os.IsNotExist(err) {
		t.Fatalf("stale ingest temp survived reopen: %v", err)
	}
}

// TestIngestKilledMidWrite drives the faultfs kill-points through a
// live ingest — die on the Nth data write, die with ENOSPC, die on
// the commit rename — and proves the store invariant each time: the
// failed ingest surfaces an error, nothing damaged becomes visible,
// and a reopened store serves exactly the traces that were
// acknowledged.
func TestIngestKilledMidWrite(t *testing.T) {
	cases := map[string]func(*faultfs.Fault){
		"torn-data-write": func(f *faultfs.Fault) { f.FailAfterWrites(2, true) },
		"enospc":          func(f *faultfs.Fault) { f.SetErr(faultfs.ENOSPC); f.FailAfterWrites(1, false) },
		"rename-fault":    func(f *faultfs.Fault) { f.FailAfterRenames(0) },
		"sync-fault":      func(f *faultfs.Fault) { f.FailAfterSyncs(0) },
	}
	for name, arm := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fault := faultfs.New(nil)
			st, err := OpenFS(fault, dir)
			if err != nil {
				t.Fatal(err)
			}
			good, _, err := st.Ingest(bytes.NewReader(renderCSV(testAccesses(1500))), 0)
			if err != nil {
				t.Fatal(err)
			}
			arm(fault)
			if _, _, err := st.Ingest(bytes.NewReader(renderCSV(testAccesses(9000))), 0); err == nil {
				t.Fatal("ingest through tripped failpoint reported success")
			}
			fault.Reset()

			// The live store must still serve the acknowledged trace
			// and nothing else.
			if _, ok := st.Get(good.ID); !ok {
				t.Fatal("acknowledged trace lost after failed ingest")
			}
			if n, _ := st.Totals(); n != 1 {
				t.Fatalf("store indexes %d traces after failed ingest, want 1", n)
			}

			// So must a cold reopen of the directory.
			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := st2.Get(good.ID); !ok {
				t.Fatal("acknowledged trace lost across reopen")
			}
			if n, _ := st2.Totals(); n != 1 {
				t.Fatalf("reopened store indexes %d traces, want 1", n)
			}
			// Whatever the fault left behind must not be a servable
			// .trc in the live directory.
			if files, _ := filepath.Glob(filepath.Join(dir, "*.trc")); len(files) != 1 {
				t.Fatalf("live directory holds %d .trc files, want 1: %v", len(files), files)
			}
		})
	}
}
