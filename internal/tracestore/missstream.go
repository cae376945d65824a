package tracestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cache"
	"repro/internal/faultfs"
	"repro/internal/tracesim"
	"repro/internal/units"
)

// Miss streams. A stored trace's replay through the L1/L2/prefetcher
// pass depends only on the trace and the upper Hierarchy (plus the
// pass count), not on the memory configuration below the L2. The
// first replay of such a variant records the pass's miss log
// (tracesim.MissRecorder) into <dir>/miss/<id>-<variant>, and later
// replays of the variant, under any memory configurations, drain their
// lanes from the file (tracesim.DrainLanes) instead of re-simulating
// the upper hierarchy.
//
// File layout: a fixed missHeaderSize header, then blocks, sealed and
// framed as trace files are (sealHeader, appendFrame, readFrame in
// format.go).
//
//	header  "TRCMISS1" | u32 version | u32 reserved | 21 x u64 fields
//	        (Hierarchy, Passes, Warm, Entries, Upper) | u32 CRC32
//	block   frame of payload
//	payload uvarint(count) | count x uvarint(zigzag(entry - previous))
//
// The delta base restarts at 0 in every block. A stream file is a
// cache: it is written temp-then-rename without fsync, and a torn,
// truncated or stale file fails its checks on read, so the replay
// falls back to the trace and records the variant again.

const (
	missMagic = "TRCMISS1"
	// missVersion is bumped on any layout change, and on any change to
	// what tracesim logs below the L2, so streams recorded by an older
	// build fail the version check and are recorded again.
	missVersion = 1
	// missHeaderFields is the number of u64 fields in the header.
	missHeaderFields = 21
	missHeaderSize   = 16 + 8*missHeaderFields + 4
	// missBlockEntries is the writer's block granularity.
	missBlockEntries = 8192
	// maxMissBlockEntries and maxMissBlockPayload bound what the reader
	// allocates for one block, so a corrupted count or length cannot
	// demand gigabytes.
	maxMissBlockEntries = 1 << 20
	maxMissBlockPayload = binary.MaxVarintLen64 * (maxMissBlockEntries + 1)
	// missDirName is the subdirectory holding the streams. OpenFS
	// never lists it: streams are found by name.
	missDirName = "miss"
	// missTempPrefix names streams being written, in the store's own
	// directory, so OpenFS's existing scan sweeps a crash's leftovers.
	missTempPrefix = ".miss-"
)

// MissHeader is the header of a miss stream: what the recorded pass
// ran on and what it computed above the memory lanes.
type MissHeader struct {
	Hierarchy tracesim.Hierarchy
	// Passes is the replay's pass count; Warm counts the entries of
	// the warm-up passes, which the measured pass's entries follow.
	Passes int
	Warm   int64
	// Entries is the stream's total entry count.
	Entries int64
	Upper   tracesim.Upper
}

func (h MissHeader) fields() [missHeaderFields]uint64 {
	var pf uint64
	if h.Hierarchy.Prefetcher {
		pf = 1
	}
	u := h.Upper
	return [missHeaderFields]uint64{
		uint64(h.Hierarchy.L1Size), uint64(h.Hierarchy.L1Ways),
		uint64(h.Hierarchy.L2Size), uint64(h.Hierarchy.L2Ways), pf,
		math.Float64bits(h.Hierarchy.L1Lat), math.Float64bits(h.Hierarchy.L2Lat),
		uint64(h.Passes), uint64(h.Warm), uint64(h.Entries),
		uint64(u.Accesses),
		uint64(u.L1.Hits), uint64(u.L1.Misses), uint64(u.L1.Evictions), uint64(u.L1.DirtyWritebacks),
		uint64(u.L2.Hits), uint64(u.L2.Misses), uint64(u.L2.Evictions), uint64(u.L2.DirtyWritebacks),
		uint64(u.Prefetches), u.HitPS,
	}
}

// encodeMissHeader lays h out in the fixed, sealed header form.
func encodeMissHeader(h MissHeader) [missHeaderSize]byte {
	var b [missHeaderSize]byte
	binary.LittleEndian.PutUint32(b[8:12], missVersion)
	for i, f := range h.fields() {
		binary.LittleEndian.PutUint64(b[16+8*i:], f)
	}
	sealHeader(b[:], missMagic)
	return b
}

// decodeMissHeader validates and parses a header.
func decodeMissHeader(b []byte) (MissHeader, error) {
	if err := openHeader(b, missHeaderSize, missMagic); err != nil {
		return MissHeader{}, fmt.Errorf("tracestore: miss stream: %w", err)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != missVersion {
		return MissHeader{}, fmt.Errorf("tracestore: unsupported miss-stream version %d (want %d)", v, missVersion)
	}
	var f [missHeaderFields]uint64
	for i := range f {
		f[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	i := func(k int) int64 { return int64(f[k]) }
	stats := func(k int) cache.Stats {
		return cache.Stats{Hits: i(k), Misses: i(k + 1), Evictions: i(k + 2), DirtyWritebacks: i(k + 3)}
	}
	h := MissHeader{
		Hierarchy: tracesim.Hierarchy{
			L1Size: units.Bytes(f[0]), L1Ways: int(f[1]),
			L2Size: units.Bytes(f[2]), L2Ways: int(f[3]),
			Prefetcher: f[4] == 1,
			L1Lat:      math.Float64frombits(f[5]), L2Lat: math.Float64frombits(f[6]),
		},
		Passes: int(f[7]), Warm: i(8), Entries: i(9),
		Upper: tracesim.Upper{
			Accesses:   i(10),
			L1:         stats(11),
			L2:         stats(15),
			Prefetches: i(19),
			HitPS:      f[20],
		},
	}
	if f[4] > 1 || h.Passes < 1 || h.Entries < 0 || h.Warm < 0 || h.Warm > h.Entries ||
		!finiteLatency(h.Hierarchy.L1Lat) || !finiteLatency(h.Hierarchy.L2Lat) {
		return MissHeader{}, fmt.Errorf("tracestore: inconsistent miss-stream header")
	}
	return h, nil
}

func finiteLatency(ns float64) bool { return ns >= 0 && !math.IsInf(ns, 0) }

// MissWriter records a replay's miss log as a stream file. It
// implements tracesim.MissRecorder; Commit files the stream once the
// replay has finished. A write failure is sticky and surfaces from
// Commit, which never fails the replay it records.
type MissWriter struct {
	out fileOut
	bw  *bufio.Writer

	// The pending block: its entry count, last entry and encoded
	// deltas; payload and frame are its flush buffers.
	count          int
	prev           uint64
	deltas         []byte
	payload, frame []byte

	entries, warm int64
	err           error

	// Store-backed writers: the temp file and the final name.
	st       *Store
	tmp      faultfs.File
	id, path string
}

func newMissWriter(out fileOut) *MissWriter {
	w := &MissWriter{out: out, bw: bufio.NewWriterSize(out, 64<<10), deltas: make([]byte, 0, 2*missBlockEntries)}
	var zero [missHeaderSize]byte
	_, w.err = w.bw.Write(zero[:])
	return w
}

// Misses implements tracesim.MissRecorder.
//
//simd:hotpath — runs once per miss-log drain of every recorded replay.
func (w *MissWriter) Misses(log []uint64) {
	for w.err == nil && len(log) > 0 {
		n := min(len(log), missBlockEntries-w.count)
		d, prev := w.deltas, w.prev
		for _, e := range log[:n] {
			d = binary.AppendUvarint(d, zigzag(int64(e-prev)))
			prev = e
		}
		w.deltas, w.prev = d, prev
		w.count += n
		w.entries += int64(n)
		log = log[n:]
		if w.count == missBlockEntries {
			w.flushBlock()
		}
	}
}

// Warm implements tracesim.MissRecorder.
func (w *MissWriter) Warm() { w.warm = w.entries }

// flushBlock writes the pending block.
func (w *MissWriter) flushBlock() {
	if w.count == 0 || w.err != nil {
		return
	}
	w.payload = append(binary.AppendUvarint(w.payload[:0], uint64(w.count)), w.deltas...)
	w.frame = appendFrame(w.frame[:0], w.payload)
	_, w.err = w.bw.Write(w.frame)
	w.count, w.prev, w.deltas = 0, 0, w.deltas[:0]
}

// finish writes the last block and the header, taking Warm and
// Entries from what was recorded.
func (w *MissWriter) finish(h MissHeader) error {
	w.flushBlock()
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.err != nil {
		return w.err
	}
	h.Warm, h.Entries = w.warm, w.entries
	hdr := encodeMissHeader(h)
	_, w.err = w.out.WriteAt(hdr[:], 0)
	return w.err
}

// Commit completes the stream with h (its Warm and Entries come from
// the recording) and files it under its final name, replacing any
// stream of the same variant. A trace deleted while its stream was
// being recorded gets no stream. On any error the temp file is gone
// and no stream is filed.
func (w *MissWriter) Commit(h MissHeader) error {
	err := w.finish(h)
	if cerr := w.tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		w.st.mu.Lock()
		if _, ok := w.st.metas[w.id]; !ok {
			err = fmt.Errorf("%w %q", ErrNotFound, w.id)
		} else {
			err = w.st.fs.Rename(w.tmp.Name(), w.path)
		}
		w.st.mu.Unlock()
	}
	if err != nil {
		w.st.fs.Remove(w.tmp.Name())
		return fmt.Errorf("tracestore: miss stream: %w", err)
	}
	return nil
}

// Abort discards the stream being written.
func (w *MissWriter) Abort() {
	w.tmp.Close()
	w.st.fs.Remove(w.tmp.Name())
}

// MissReader reads a miss stream. It implements tracesim.MissSource;
// a stream that is corrupt, truncated or longer than its header says
// ends early with Err set, and a replay drained from it must be
// discarded.
type MissReader struct {
	h       MissHeader
	c       io.Closer
	br      *bufio.Reader
	buf     []uint64
	payload []byte
	n       int64 // entries returned so far
	err     error
	done    bool
}

// newMissReader reads and validates the header of the stream in r.
func newMissReader(r io.Reader) (*MissReader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [missHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tracestore: miss-stream header: %w", err)
	}
	h, err := decodeMissHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return &MissReader{h: h, br: br}, nil
}

// Header returns the stream's header.
func (r *MissReader) Header() MissHeader { return r.h }

// Err reports the first error that ended the stream, if any.
func (r *MissReader) Err() error { return r.err }

// Close releases the underlying file.
func (r *MissReader) Close() error {
	if r.c == nil {
		return nil
	}
	return r.c.Close()
}

// NextMisses implements tracesim.MissSource: the next block's entries,
// as a view of the reader's buffer valid until the next call.
//
//simd:hotpath — runs once per block on every replay drained from a stored miss stream.
func (r *MissReader) NextMisses() ([]uint64, bool) {
	if r.done || r.err != nil {
		return nil, false
	}
	if !r.readBlock() {
		return nil, false
	}
	return r.buf, true
}

// readBlock loads and validates the next block into r.buf, returning
// false at the end of the stream or on error (see Err). A stream that
// ends short of its header's entry count is an error.
func (r *MissReader) readBlock() bool {
	p, err := readFrame(r.br, r.payload, maxMissBlockPayload)
	r.payload = p
	if err == io.EOF {
		r.done = true
		if r.n != r.h.Entries {
			r.err = fmt.Errorf("tracestore: miss stream ends after %d of %d entries", r.n, r.h.Entries)
		}
		return false
	}
	if err != nil {
		r.err = fmt.Errorf("tracestore: miss stream: %w", err)
		return false
	}
	n, k := binary.Uvarint(p)
	if k <= 0 || n == 0 || n > maxMissBlockEntries || int64(n) > r.h.Entries-r.n {
		r.err = fmt.Errorf("tracestore: bad miss block entry count %d", n)
		return false
	}
	p = p[k:]
	if cap(r.buf) < int(n) {
		r.buf = make([]uint64, n) //simd:alloc-ok amortized: grows to the largest block once, then reused
	}
	r.buf = r.buf[:n]
	var prev uint64
	for i := range r.buf {
		u, k := binary.Uvarint(p)
		if k <= 0 {
			r.err = fmt.Errorf("tracestore: truncated miss entry %d", i)
			return false
		}
		p = p[k:]
		prev += uint64(unzigzag(u))
		r.buf[i] = prev
	}
	if len(p) != 0 {
		r.err = fmt.Errorf("tracestore: %d trailing bytes in miss block", len(p))
		return false
	}
	r.n += int64(n)
	return true
}

// missPath is where the stream of one trace variant lives.
func (s *Store) missPath(id, variant string) string {
	return filepath.Join(s.dir, missDirName, id+"-"+variant)
}

// CreateMisses starts recording the miss stream of trace id's variant.
// variant names the upper hierarchy and pass count the stream depends
// on; it must be a plain file-name component.
func (s *Store) CreateMisses(id, variant string) (*MissWriter, error) {
	if variant == "" || strings.ContainsAny(variant, `/\.`) {
		return nil, fmt.Errorf("tracestore: bad miss-stream variant %q", variant)
	}
	if err := s.fs.MkdirAll(filepath.Join(s.dir, missDirName), 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	tmp, err := s.fs.CreateTemp(s.dir, missTempPrefix+"*")
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	w := newMissWriter(tmp)
	w.st, w.tmp, w.id, w.path = s, tmp, id, s.missPath(id, variant)
	return w, nil
}

// OpenMisses opens the recorded miss stream of trace id's variant and
// validates its header. A variant never recorded reports an error
// satisfying errors.Is(err, fs.ErrNotExist).
func (s *Store) OpenMisses(id, variant string) (*MissReader, error) {
	f, err := s.fs.Open(s.missPath(id, variant))
	if err != nil {
		return nil, err
	}
	r, err := newMissReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.c = f
	return r, nil
}

// removeMisses deletes every recorded stream of trace id. Delete calls
// it with s.mu held, so no Commit can file a stream for id meanwhile.
func (s *Store) removeMisses(id string) error {
	dir := filepath.Join(s.dir, missDirName)
	entries, err := s.fs.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), id+"-") {
			if err := s.fs.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("tracestore: %w", err)
			}
		}
	}
	return nil
}
