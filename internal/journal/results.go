package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/faultfs"
	"repro/internal/keys"
)

// Results is the durable result store: one CRC-framed file per
// terminal result, named by the SHA-256 of (kind, key) so every cache
// family (point, campaign, advice, cluster, replay) shares one
// directory without filename collisions. Writes follow the
// tracestore discipline — temp file, fsync, atomic rename — so a
// crash mid-persist leaves either the old file or nothing, never a
// half-written result.
type Results struct {
	fs  faultfs.FS
	dir string

	count       atomic.Int64
	quarantined atomic.Int64
}

// resultRecord is the on-disk envelope inside each frame. Kind and
// key are stored (not only hashed into the name) so Get can verify a
// file answers the query its name claims.
type resultRecord struct {
	Kind  string          `json:"kind"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// OpenResults opens (creating if needed) the result store under dir.
func OpenResults(dir string) (*Results, error) {
	return OpenResultsFS(faultfs.OS{}, dir)
}

// OpenResultsFS is OpenResults over an injected filesystem.
func OpenResultsFS(fsys faultfs.FS, dir string) (*Results, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: results: %w", err)
	}
	r := &Results{fs: fsys, dir: dir}
	// Sweep temp files a crash left behind; they were never visible.
	// Count the results without reading them: Get checks each file
	// when it is first asked for.
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: results: %w", err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case e.IsDir():
		case strings.HasPrefix(name, ".res-"):
			fsys.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, ".res"):
			r.count.Add(1)
		}
	}
	return r, nil
}

// path returns the on-disk location of a (kind, key) result. The
// name is a canonical keys.Builder address so no (kind, key) pair can
// alias another, whatever characters they contain.
func (r *Results) path(kind, key string) string {
	name := keys.New("result").Str("kind", kind).Str("key", key).Sum()
	return filepath.Join(r.dir, name+".res")
}

// Put durably persists one result. Concurrent Puts of the same
// (kind, key) race benignly: both rename identical content onto the
// same name. Only a rename that creates a name counts as a new
// result; one that replaces a stale or raced copy does not.
func (r *Results) Put(kind, key string, v any) error {
	value, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: results: %w", err)
	}
	payload, err := json.Marshal(resultRecord{Kind: kind, Key: key, Value: value})
	if err != nil {
		return fmt.Errorf("journal: results: %w", err)
	}
	tmp, err := r.fs.CreateTemp(r.dir, ".res-*")
	if err != nil {
		return fmt.Errorf("journal: results: %w", err)
	}
	tmpPath := tmp.Name()
	discard := func() {
		tmp.Close()
		r.fs.Remove(tmpPath)
	}
	if _, err := tmp.Write(appendFrame(payload)); err != nil {
		discard()
		return fmt.Errorf("journal: results: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		discard()
		return fmt.Errorf("journal: results: %w", err)
	}
	if err := tmp.Close(); err != nil {
		r.fs.Remove(tmpPath)
		return fmt.Errorf("journal: results: %w", err)
	}
	path := r.path(kind, key)
	_, statErr := r.fs.Stat(path)
	if err := r.fs.Rename(tmpPath, path); err != nil {
		r.fs.Remove(tmpPath)
		return fmt.Errorf("journal: results: %w", err)
	}
	if errors.Is(statErr, fs.ErrNotExist) {
		r.count.Add(1)
	}
	return nil
}

// Get reads the (kind, key) result into v and reports whether it was
// served. A missing file, or one the filesystem fails to read, is a
// plain miss. A corrupt file — torn frame, CRC mismatch, undecodable
// envelope, stored (kind, key) not the requested pair — is moved to
// the quarantine directory and reported absent, never served. A value
// that no longer unmarshals into v is a miss too: the caller
// recomputes and re-persists it.
func (r *Results) Get(kind, key string, v any) bool {
	path := r.path(kind, key)
	f, err := r.fs.Open(path)
	if err != nil {
		return false
	}
	payload, err := readFrame(f)
	f.Close()
	var ioErr *fs.PathError
	if errors.As(err, &ioErr) {
		return false // the read failed, not the bytes on disk
	}
	var rec resultRecord
	if err != nil || json.Unmarshal(payload, &rec) != nil || rec.Kind != kind || rec.Key != key {
		r.quarantine(filepath.Base(path))
		return false
	}
	return json.Unmarshal(rec.Value, v) == nil
}

// quarantine moves one corrupt result file aside, out of the stored
// count. A file that cannot be moved stays where it is; Get reports it
// absent either way.
func (r *Results) quarantine(name string) {
	qdir := filepath.Join(r.dir, "quarantine")
	if r.fs.MkdirAll(qdir, 0o755) != nil || r.fs.Rename(filepath.Join(r.dir, name), filepath.Join(qdir, name)) != nil {
		return
	}
	r.count.Add(-1)
	r.quarantined.Add(1)
}

// Stats returns the resident result count and how many corrupt files
// Get quarantined (the /metrics rows).
func (r *Results) Stats() (count, quarantined int64) {
	return r.count.Load(), r.quarantined.Load()
}
