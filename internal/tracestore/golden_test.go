package tracestore

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/tracesim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// goldenStreams are the fixed access streams behind the committed
// fixtures. They must never change: the fixtures pin the on-disk
// format and the content addresses, so any encoder change that
// alters either is caught byte-for-byte.
func goldenStreams() map[string][]tracesim.Access {
	single := []tracesim.Access{{Addr: 0x1000, Kind: cache.Read}}

	// Alternating kinds and mixed deltas across a block boundary.
	mixed := testAccesses(3*blockAccesses/2 + 17)

	// Long same-kind runs and monotone addresses: exercises the
	// run-length kind coding and small positive deltas.
	runs := make([]tracesim.Access, 2*blockAccesses)
	for i := range runs {
		k := cache.Read
		if i >= len(runs)/2 {
			k = cache.Write
		}
		runs[i] = tracesim.Access{Addr: uint64(i) * 64, Kind: k}
	}
	return map[string][]tracesim.Access{
		"single": single,
		"mixed":  mixed,
		"runs":   runs,
		// Three accesses: one short tail block and nothing else.
		"tiny": testAccesses(3),
		// Exactly one full block: the tail flush finds nothing to write.
		"block-boundary": testAccesses(blockAccesses),
	}
}

type goldenMeta struct {
	ID       string `json:"id"`
	Accesses int64  `json:"accesses"`
	Reads    int64  `json:"reads"`
	Writes   int64  `json:"writes"`
	Lines    int64  `json:"lines"`
	MinAddr  uint64 `json:"min_addr"`
	MaxAddr  uint64 `json:"max_addr"`
}

// encodeFile renders a full .trc image (header + block stream) the
// way writeTrace lays it out, on the given number of encode workers,
// with the metadata the fixture's .json records.
func encodeFile(t *testing.T, accs []tracesim.Access, workers int) ([]byte, goldenMeta) {
	t.Helper()
	var body bytes.Buffer
	enc := newEncoder(&body, workers)
	for _, a := range accs {
		enc.Append(a)
	}
	sum, id, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	hdr := encodeHeader(sum)
	return append(hdr[:], body.Bytes()...), goldenMeta{
		ID:       id,
		Accesses: sum.Accesses,
		Reads:    sum.Reads,
		Writes:   sum.Writes,
		Lines:    sum.Lines,
		MinAddr:  sum.MinAddr,
		MaxAddr:  sum.MaxAddr,
	}
}

// loadGolden reads the committed fixture name: the .trc image and its
// metadata.
func loadGolden(t *testing.T, name string) ([]byte, goldenMeta) {
	t.Helper()
	dir := filepath.Join("testdata", "golden")
	file, err := os.ReadFile(filepath.Join(dir, name+".trc"))
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	mj, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta goldenMeta
	if err := json.Unmarshal(mj, &meta); err != nil {
		t.Fatal(err)
	}
	return file, meta
}

// TestGoldenFixtures pins the binary format: encoding the fixed
// streams must reproduce the committed files byte-for-byte, decoding
// the committed files must reproduce the streams, and the content
// addresses must never drift. Run with -update to regenerate after a
// deliberate, versioned format change.
func TestGoldenFixtures(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for name, accs := range goldenStreams() {
		t.Run(name, func(t *testing.T) {
			file, meta := encodeFile(t, accs, runtime.GOMAXPROCS(0))
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				mj, err := json.MarshalIndent(meta, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name+".trc"), file, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name+".json"), append(mj, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			want, wantMeta := loadGolden(t, name)
			if !bytes.Equal(file, want) {
				t.Fatalf("encoder output diverged from golden fixture %s (%d vs %d bytes)", name, len(file), len(want))
			}
			if meta != wantMeta {
				t.Fatalf("summary/content address drifted:\n got %+v\nwant %+v", meta, wantMeta)
			}

			// And the committed bytes must decode back to the stream.
			dec := NewDecoder(bytes.NewReader(want[headerSize:]))
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
		})
	}
}

// TestSyntheticStreamContentIDs pins the synthetic generators' streams
// across versions: trace-fidelity cache keys assume a generator with
// the same parameters always yields the same stream, so exporting
// these fixed generators must reproduce these content addresses.
func TestSyntheticStreamContentIDs(t *testing.T) {
	seq, err := tracesim.NewSequential(100, 1<<20+77, 48, cache.Write)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := tracesim.NewUniformRandom(0, 8<<20, 123457, cache.Read, 42)
	if err != nil {
		t.Fatal(err)
	}
	chase, err := tracesim.NewPointerChase(0, 4<<20, 400000, cache.Read, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  tracesim.BlockSource
		want string
	}{
		{"sequential", seq, "cc13379b50e009909690eac444dbcc6fd161746bec7e3ccd38c07dcf89b79f9a"},
		{"uniform-random", rnd, "7971bf9993e1dc0da0c25bd6fae83d04dc4e9f08ab0a5697b34c5502d4f0836c"},
		{"pointer-chase", chase, "f88306ed24061c310364b809832543bd85002f582401b3d3a39882ffe117052e"},
	} {
		_, id, err := Export(filepath.Join(t.TempDir(), tc.name+".trc"), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if id != tc.want {
			t.Errorf("%s: content address %s, want %s", tc.name, id, tc.want)
		}
	}
}

// TestParallelEncoderMatchesSerial pins the pipelined Encoder to the
// serial encoder it replaced: that encoder recorded the golden
// fixtures, so every golden stream, encoded on any number of workers,
// must reproduce the committed bytes, content address and Summary.
func TestParallelEncoderMatchesSerial(t *testing.T) {
	for name, accs := range goldenStreams() {
		want, wantMeta := loadGolden(t, name)
		for _, workers := range []int{1, 2, 4, 7} {
			t.Run(name, func(t *testing.T) {
				got, meta := encodeFile(t, accs, workers)
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: encoder bytes differ from the fixture (%d vs %d)", workers, len(got), len(want))
				}
				if meta != wantMeta {
					t.Fatalf("workers=%d: summary/content address %+v, want %+v", workers, meta, wantMeta)
				}
			})
		}
	}
}

// TestParallelEncoderAbort must quiesce the pipeline mid-stream
// without hanging or panicking, including a double shutdown.
func TestParallelEncoderAbort(t *testing.T) {
	var buf bytes.Buffer
	e := newEncoder(&buf, 4)
	for _, a := range testAccesses(3 * blockAccesses) {
		e.Append(a)
	}
	e.Abort()
	e.Abort() // idempotent
}

// TestParallelEncoderEmpty: a stream with no accesses is an error.
func TestParallelEncoderEmpty(t *testing.T) {
	var buf bytes.Buffer
	e := newEncoder(&buf, 2)
	if _, _, err := e.Finish(); err == nil {
		t.Fatal("expected empty-trace error")
	}
}
