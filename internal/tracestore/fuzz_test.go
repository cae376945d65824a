package tracestore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/tracesim"
)

// This file pins the ingest fast path with differential fuzzing: the
// byte-slice scanners must accept only inputs they parse identically
// to the reference tier (encoding/json for NDJSON; the strconv-based
// line parser for CSV — encoding/csv is NOT the oracle because it
// interprets quote characters the trace dialect does not have), and
// the whole-stream text decoder must accept/reject exactly like a
// reference-tier-only replica. The block decoder must survive
// arbitrary bytes: corruption surfaces as Err, never as a panic.

// decodeTextAll runs the production text decoder (fast tier plus
// fallback) over data.
func decodeTextAll(data []byte) ([]tracesim.Access, error) {
	var out []tracesim.Access
	err := decodeTextInto(bufio.NewReaderSize(bytes.NewReader(data), 64<<10), func(a tracesim.Access) {
		out = append(out, a)
	})
	return out, err
}

// decodeTextReference is the oracle: the same dialect/comment/header
// logic, but every line goes through the reference parsers.
func decodeTextReference(data []byte) ([]tracesim.Access, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	var out []tracesim.Access
	lineNo := 0
	ndjson, decided := false, false
	format := "csv"
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if !decided {
			ndjson = line[0] == '{'
			decided = true
			if ndjson {
				format = "ndjson"
			} else if isCSVHeader(string(line)) {
				continue
			}
		}
		var (
			a   tracesim.Access
			err error
		)
		if ndjson {
			a, err = parseNDJSONLine(string(line))
		} else {
			a, err = parseCSVLine(string(line))
		}
		if err != nil {
			return nil, fmt.Errorf("tracestore: %s line %d: %w", format, lineNo, err)
		}
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// streamID encodes a stream and returns its content address.
func streamID(t *testing.T, accs []tracesim.Access) string {
	t.Helper()
	enc := NewEncoder(io.Discard)
	for _, a := range accs {
		enc.Append(a)
	}
	_, id, err := enc.Finish()
	if err != nil {
		t.Fatalf("encoding accepted stream: %v", err)
	}
	return id
}

// diffStreams is the shared whole-stream differential body.
func diffStreams(t *testing.T, data []byte) {
	got, errFast := decodeTextAll(data)
	want, errRef := decodeTextReference(data)
	if (errFast == nil) != (errRef == nil) {
		t.Fatalf("accept/reject divergence:\n production: %v\n reference:  %v", errFast, errRef)
	}
	if errFast != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("stream length divergence: production %d accesses, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("access %d divergence: production %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) > 0 && len(got) <= 1<<14 {
		if a, b := streamID(t, got), streamID(t, want); a != b {
			t.Fatalf("trace id divergence: %s != %s", a, b)
		}
	}
}

// fuzzLines yields the trimmed data lines the decoders would parse.
func fuzzLines(data []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		out = append(out, line)
	}
	return out
}

func FuzzIngestNDJSON(f *testing.F) {
	for _, s := range ndjsonSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		// Fast tier accepts only what it parses identically to
		// encoding/json.
		for _, line := range fuzzLines(data) {
			if a, ok := parseNDJSONFast(line); ok {
				ref, err := parseNDJSONLine(string(line))
				if err != nil {
					t.Fatalf("fast tier accepted %q but encoding/json rejects it: %v", line, err)
				}
				if a != ref {
					t.Fatalf("fast tier parsed %q as %+v, encoding/json says %+v", line, a, ref)
				}
			}
		}
		diffStreams(t, data)
	})
}

func FuzzIngestCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		for _, line := range fuzzLines(data) {
			if a, ok := parseCSVFast(line); ok {
				ref, err := parseCSVLine(string(line))
				if err != nil {
					t.Fatalf("fast tier accepted %q but the reference parser rejects it: %v", line, err)
				}
				if a != ref {
					t.Fatalf("fast tier parsed %q as %+v, reference says %+v", line, a, ref)
				}
			}
		}
		diffStreams(t, data)
	})
}

func FuzzDecodeBlock(f *testing.F) {
	for _, s := range decodeBlockSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		// Must terminate without panicking on any input.
		dec := NewDecoder(bytes.NewReader(data))
		decodeAll(dec)
		_ = dec.Err()
	})
}

// --- seeds -----------------------------------------------------------

var ndjsonSeeds = []string{
	"{\"addr\": 4096, \"kind\": \"R\"}\n{\"addr\": 4160, \"kind\": \"W\"}\n",
	"{\"addr\": \"0xff00\", \"kind\": \"w\"}\n",
	"{\"kind\": \"W\", \"addr\": 64}\n",
	"{\"addr\": 1}\n",
	"{\"addr\": 01}\n",  // leading zero: JSON rejects
	"{\"addr\": 1_0}\n", // underscore numeral
	"{\"addr\": 18446744073709551615}\n",
	"{\"addr\": 18446744073709551616}\n", // overflow
	"{\"addr\": 5, \"addr\": 9}\n",       // duplicate key: last wins
	"{\"addr\": 5, \"other\": 1}\n",      // unknown key
	"{\"addr\": \"\\u0035\"}\n",          // escape: fast tier must fall back
	"{\"addr\": 5} trailing\n",
	"{\"addr\": }\n",
	"# comment\n\n{\"addr\": 7, \"kind\": \"read\"}\n",
	"{\"addr\":\t5 ,\"kind\" : \"0\"}\n",
	"{\"addr\": 5, \"kind\": \"\\u00a0R\"}\n", // unicode space in kind
}

var csvSeeds = []string{
	"addr,kind\n4096,R\n4160,W\n",
	"0x1000,w\n",
	"64\n",
	"0755,R\n",  // leading zero: strconv base 0 reads octal
	"0b101,R\n", // binary numeral
	"1_024,W\n",
	" 123 , W \n",
	"1,2,3\n",
	"notanumber,R\n",
	"123,X\n",
	"# comment\naddr\n18446744073709551615,store\n",
	"123,\xc2\xa0R\n", // unicode space in kind
	"123,READ\n",
}

// decodeBlockSeeds builds binary seeds: a valid block stream, a
// truncated copy, and a CRC-corrupted copy.
func decodeBlockSeeds() [][]byte {
	accs := []tracesim.Access{
		{Addr: 4096, Kind: cache.Read},
		{Addr: 4160, Kind: cache.Write},
		{Addr: 1 << 30, Kind: cache.Read},
		{Addr: 64, Kind: cache.Read},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, a := range accs {
		enc.Append(a)
	}
	if _, _, err := enc.Finish(); err != nil {
		panic(err)
	}
	valid := buf.Bytes()
	truncated := valid[:len(valid)-3]
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xff // flip a CRC byte
	return [][]byte{valid, truncated, corrupt, {0x00}, {0xff, 0xff, 0xff}}
}

// TestWriteFuzzCorpus materializes the seeds as files under
// testdata/fuzz/<target>/ (the native corpus location, shared by `go
// test` and `go test -fuzz`) when run with -update.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateGolden {
		t.Skip("run with -update to rewrite the seed corpora")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var nd, cs [][]byte
	for _, s := range ndjsonSeeds {
		nd = append(nd, []byte(s))
	}
	for _, s := range csvSeeds {
		cs = append(cs, []byte(s))
	}
	write("FuzzIngestNDJSON", nd)
	write("FuzzIngestCSV", cs)
	write("FuzzDecodeBlock", decodeBlockSeeds())
	write("FuzzMissStream", missStreamSeeds())
}

// TestFuzzSeedsDeterministic runs every seed through the fuzz bodies
// as plain tests, so the differential invariants hold even when no
// fuzzing engine is available.
func TestFuzzSeedsDeterministic(t *testing.T) {
	for _, s := range ndjsonSeeds {
		for _, line := range fuzzLines([]byte(s)) {
			if a, ok := parseNDJSONFast(line); ok {
				ref, err := parseNDJSONLine(string(line))
				if err != nil || a != ref {
					t.Fatalf("ndjson fast/reference divergence on %q: %+v vs %+v (%v)", line, a, ref, err)
				}
			}
		}
		diffStreams(t, []byte(s))
	}
	for _, s := range csvSeeds {
		for _, line := range fuzzLines([]byte(s)) {
			if a, ok := parseCSVFast(line); ok {
				ref, err := parseCSVLine(string(line))
				if err != nil || a != ref {
					t.Fatalf("csv fast/reference divergence on %q: %+v vs %+v (%v)", line, a, ref, err)
				}
			}
		}
		diffStreams(t, []byte(s))
	}
	for _, s := range decodeBlockSeeds() {
		dec := NewDecoder(bytes.NewReader(s))
		decodeAll(dec)
		_ = dec.Err()
	}
	for _, s := range missStreamSeeds() {
		checkMissRoundTrip(t, s)
	}
}
