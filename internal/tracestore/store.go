package tracestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/tracesim"
	"repro/internal/units"
)

// ErrNotFound is returned for operations on a trace id the store does
// not hold; the service maps it to HTTP 404.
var ErrNotFound = errors.New("tracestore: unknown trace")

// Meta is the stored metadata of one trace: the stream summary plus
// the on-disk accounting. It is what GET /v1/traces serves.
type Meta struct {
	// ID is the content address: hex SHA-256 of the canonical access
	// stream.
	ID string `json:"id"`
	// Accesses, Reads and Writes describe the reference mix.
	Accesses int64 `json:"accesses"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`
	// FootprintBytes is the unique bytes touched (distinct cache
	// lines x 64 B).
	FootprintBytes int64 `json:"footprint_bytes"`
	// MinAddr and MaxAddr bound the address range.
	MinAddr uint64 `json:"min_addr"`
	MaxAddr uint64 `json:"max_addr"`
	// FileBytes is the encoded size on disk.
	FileBytes int64 `json:"file_bytes"`
}

// Footprint returns the footprint in unit form.
func (m Meta) Footprint() units.Bytes { return units.Bytes(m.FootprintBytes) }

// Store is a durable, content-addressed trace store over one
// directory: each trace is a single <sha256>.trc file, and an
// in-memory index (rebuilt from the headers at Open) answers metadata
// queries without touching disk.
type Store struct {
	fs  faultfs.FS
	dir string

	mu          sync.Mutex
	metas       map[string]Meta // guarded by mu
	quarantined int64           // guarded by mu
}

// Open opens (creating if needed) a store rooted at dir and indexes
// the traces already present — the durability half of the contract:
// a restarted service re-serves every previously ingested trace.
func Open(dir string) (*Store, error) {
	return OpenFS(faultfs.OS{}, dir)
}

// OpenFS is Open over an injected filesystem (fault-injection tests
// substitute a faultfs.Fault to kill ingest mid-write).
//
// Recovery semantics: stale ingest temp files (a crash mid-ingest)
// are swept — they were never visible; a .trc file with a corrupt or
// truncated header, or whose name does not match its content address,
// is moved to a quarantine subdirectory rather than silently skipped,
// so it is never served and never mistaken for a live trace by a later
// ingest of the same content.
func OpenFS(fsys faultfs.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{fs: fsys, dir: dir, metas: make(map[string]Meta)}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".ingest-") || strings.HasPrefix(name, missTempPrefix) {
			// A crash mid-ingest or mid-recording left this temp file;
			// it was never indexed or filed, so removing it loses
			// nothing.
			fsys.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".trc") {
			continue
		}
		meta, err := s.readMeta(filepath.Join(dir, name))
		if err != nil || meta.ID != strings.TrimSuffix(name, ".trc") {
			// Corrupt header or a name that lies about its content
			// address: quarantine the file so it can never be served.
			if qerr := s.quarantine(name); qerr != nil {
				return nil, qerr
			}
			continue
		}
		s.metas[meta.ID] = meta
	}
	return s, nil
}

// quarantine moves one damaged trace file into <dir>/quarantine.
//
//simd:locked — runs inside OpenFS's index scan, before the Store is published to any other goroutine.
func (s *Store) quarantine(name string) error {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := s.fs.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("tracestore: quarantine: %w", err)
	}
	if err := s.fs.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("tracestore: quarantine: %w", err)
	}
	s.quarantined++
	return nil
}

// Quarantined returns how many damaged files Open moved aside.
func (s *Store) Quarantined() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// readMeta loads one trace file's header. The ID is taken from the
// file name and verified against it by the caller.
func (s *Store) readMeta(path string) (Meta, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return Meta{}, fmt.Errorf("tracestore: %s: %w", path, err)
	}
	sum, err := decodeHeader(hdr[:])
	if err != nil {
		return Meta{}, fmt.Errorf("tracestore: %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return Meta{}, err
	}
	return metaFrom(strings.TrimSuffix(filepath.Base(path), ".trc"), sum, st.Size()), nil
}

func metaFrom(id string, sum Summary, fileBytes int64) Meta {
	return Meta{
		ID:             id,
		Accesses:       sum.Accesses,
		Reads:          sum.Reads,
		Writes:         sum.Writes,
		FootprintBytes: int64(sum.Footprint()),
		MinAddr:        sum.MinAddr,
		MaxAddr:        sum.MaxAddr,
		FileBytes:      fileBytes,
	}
}

// writeTrace writes one trace file to f, Ingest's temp file or
// Export's target: a placeholder header, the Encoder's block stream
// (one frame per block, see appendFrame) of every access feed emits,
// then the sealed header at offset 0, since the Summary is known only
// once the stream ends. Errors from feed are returned as they are.
func writeTrace(f fileOut, feed func(emit func(tracesim.Access)) error) (Summary, string, error) {
	if _, err := f.Write(make([]byte, headerSize)); err != nil {
		return Summary{}, "", fmt.Errorf("tracestore: %w", err)
	}
	enc := NewEncoder(f)
	if err := feed(enc.Append); err != nil {
		enc.Abort()
		return Summary{}, "", err
	}
	sum, id, err := enc.Finish()
	if err != nil {
		return Summary{}, "", err
	}
	hdr := encodeHeader(sum)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return Summary{}, "", fmt.Errorf("tracestore: %w", err)
	}
	return sum, id, nil
}

// path returns the on-disk location of a trace id.
func (s *Store) path(id string) string { return filepath.Join(s.dir, id+".trc") }

// Ingest consumes a trace stream in any accepted format (NDJSON, CSV,
// either gzipped, or the binary format itself), re-encodes it into
// the canonical binary form, and files it under its content address.
// The stream is processed block by block — whole traces are never
// buffered. maxBytes > 0 bounds the stream measured AFTER
// decompression (ErrTooLarge beyond it), so a gzip bomb cannot bypass
// a transport-level cap; 0 means unbounded. The second return reports
// deduplication: true means the store already held this exact access
// stream and no new file was written.
func (s *Store) Ingest(r io.Reader, maxBytes int64) (Meta, bool, error) {
	tmp, err := s.fs.CreateTemp(s.dir, ".ingest-*")
	if err != nil {
		return Meta{}, false, fmt.Errorf("tracestore: %w", err)
	}
	tmpPath := tmp.Name()
	// The temp file is removed on every path except the final rename.
	discard := func() {
		tmp.Close()
		s.fs.Remove(tmpPath)
	}

	sum, id, err := writeTrace(tmp, func(emit func(tracesim.Access)) error {
		return decodeInto(r, maxBytes, emit)
	})
	if err != nil {
		discard()
		return Meta{}, false, err
	}
	if err := tmp.Sync(); err != nil {
		discard()
		return Meta{}, false, fmt.Errorf("tracestore: %w", err)
	}
	st, err := tmp.Stat()
	if err != nil {
		discard()
		return Meta{}, false, fmt.Errorf("tracestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmpPath)
		return Meta{}, false, fmt.Errorf("tracestore: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.metas[id]; ok {
		// Same content address: the store already holds this stream.
		s.fs.Remove(tmpPath)
		return m, true, nil
	}
	if err := s.fs.Rename(tmpPath, s.path(id)); err != nil {
		s.fs.Remove(tmpPath)
		return Meta{}, false, fmt.Errorf("tracestore: %w", err)
	}
	m := metaFrom(id, sum, st.Size())
	s.metas[id] = m
	return m, false, nil
}

// List returns the stored traces' metadata, sorted by id for
// deterministic output.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.metas))
	for _, m := range s.metas {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns one trace's metadata.
func (s *Store) Get(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[id]
	return m, ok
}

// Totals returns the stored trace count and their aggregate encoded
// bytes (the /metrics gauges).
func (s *Store) Totals() (count int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.metas {
		bytes += m.FileBytes
	}
	return len(s.metas), bytes
}

// Delete removes a trace and its recorded miss streams from the index
// and from disk.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.metas[id]; !ok {
		return fmt.Errorf("%w %q", ErrNotFound, id)
	}
	if err := s.removeMisses(id); err != nil {
		return err
	}
	if err := s.fs.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("tracestore: %w", err)
	}
	delete(s.metas, id)
	return nil
}

// Open returns a Provider replaying the stored trace from its first
// access. Each Provider owns an independent file handle, so
// concurrent replays of the same trace do not interfere.
func (s *Store) Open(id string) (*Provider, error) {
	s.mu.Lock()
	meta, ok := s.metas[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	f, err := s.fs.Open(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: %s: %w", id, err)
	}
	if _, err := decodeHeader(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return &Provider{meta: meta, f: f, dec: NewDecoder(f)}, nil
}
