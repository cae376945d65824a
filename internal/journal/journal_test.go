package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

func entry(i int, state string) Entry {
	return Entry{
		State: state,
		Job:   fmt.Sprintf("j%06d", i),
		Kind:  "campaign",
		Key:   fmt.Sprintf("key-%d", i),
		Spec:  json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(got))
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(entry(i, StateAccepted)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, got, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d entries, want 10", len(got))
	}
	for i, e := range got {
		if e.Job != fmt.Sprintf("j%06d", i) || e.State != StateAccepted {
			t.Fatalf("entry %d = %+v", i, e)
		}
		if e.Time.IsZero() {
			t.Fatalf("entry %d has no timestamp", i)
		}
	}
}

// TestTornTailQuarantined is the crash-mid-append shape: the fault
// filesystem tears the final frame in half. Reopening must serve
// every intact entry, quarantine the torn bytes, and leave the
// journal appendable.
func TestTornTailQuarantined(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(nil)
	j, _, err := OpenFS(fault, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(entry(i, StateAccepted)); err != nil {
			t.Fatal(err)
		}
	}
	// The 6th append dies mid-write, leaving half a frame on disk.
	fault.FailAfterWrites(0, true)
	if err := j.Append(entry(5, StateAccepted)); err == nil {
		t.Fatal("append through tripped failpoint reported success")
	}
	j.Close()

	j2, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != 5 {
		t.Fatalf("replayed %d entries after torn tail, want 5", len(got))
	}
	if _, q := j2.Stats(); q == 0 {
		t.Fatal("torn tail was not quarantined")
	}
	qdir := filepath.Join(dir, "quarantine")
	names, err := os.ReadDir(qdir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no quarantine file written: %v", err)
	}
	// The journal must accept appends again after recovery.
	if err := j2.Append(entry(6, StateDone)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, got, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("post-recovery journal replayed %d entries, want 6", len(got))
	}
}

// TestCorruptMidFileStopsReplay: corruption in the middle (bit rot,
// not a crash) must stop replay at the last intact frame — nothing
// after a corrupt frame can be trusted because framing is lost.
func TestCorruptMidFileStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(entry(i, StateAccepted)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, journalName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the 3rd frame's payload.
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= 4 {
		t.Fatalf("corrupt journal still replayed %d entries", len(got))
	}
	for _, e := range got {
		if !strings.HasPrefix(e.Job, "j0000") {
			t.Fatalf("served corrupt entry %+v", e)
		}
	}
}

// TestAppendFailsClosed: when the disk dies (ENOSPC) the append must
// report the error — the caller must NOT 202 — and reopening must
// never surface a partial record.
func TestAppendFailsClosed(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(nil)
	fault.SetErr(faultfs.ENOSPC)
	j, _, err := OpenFS(fault, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(entry(0, StateAccepted)); err != nil {
		t.Fatal(err)
	}
	fault.FailAfterWrites(0, false)
	if err := j.Append(entry(1, StateAccepted)); err == nil {
		t.Fatal("ENOSPC append reported success")
	}
	j.Close()

	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d entries, want exactly the one acknowledged append", len(got))
	}
}

// TestSyncFailureSurfaces: a write that lands in the page cache but
// cannot fsync must fail the append — durability is the contract.
func TestSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(nil)
	j, _, err := OpenFS(fault, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fault.FailAfterSyncs(0)
	if err := j.Append(entry(0, StateAccepted)); err == nil {
		t.Fatal("append with failing fsync reported success")
	}
}

func TestCompactBoundsGrowth(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := j.Append(entry(i, StateAccepted)); err != nil {
			t.Fatal(err)
		}
	}
	keep := []Entry{entry(48, StateAccepted), entry(49, StateAccepted)}
	if err := j.Compact(keep); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction land in the compacted file.
	if err := j.Append(entry(50, StateDone)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("compacted journal replayed %d entries, want 3", len(got))
	}
	if got[0].Job != "j000048" || got[2].Job != "j000050" {
		t.Fatalf("compacted entries = %v", got)
	}
}

// TestCompactRenameFaultLeavesOldJournal: if the atomic rename of the
// compacted file fails, the original journal must survive untouched.
func TestCompactRenameFaultLeavesOldJournal(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(nil)
	j, _, err := OpenFS(fault, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(entry(i, StateAccepted)); err != nil {
			t.Fatal(err)
		}
	}
	fault.FailAfterRenames(0)
	if err := j.Compact([]Entry{entry(0, StateAccepted)}); err == nil {
		t.Fatal("compact through failing rename reported success")
	}
	j.Close()

	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("failed compaction damaged the journal: %d entries, want 5", len(got))
	}
}

func TestResultsPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	type val struct {
		N int `json:"n"`
	}
	for i := 0; i < 8; i++ {
		if err := r.Put("point", fmt.Sprintf("k%d", i), val{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Put("campaign", "k0", val{N: 100}); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := r2.Stats(); n != 9 {
		t.Fatalf("reopened store counts %d results, want 9", n)
	}
	seen := map[string]int{}
	for _, kk := range [][2]string{{"point", "k0"}, {"point", "k3"}, {"point", "k7"}, {"campaign", "k0"}} {
		var v val
		if !r2.Get(kk[0], kk[1], &v) {
			t.Fatalf("%s/%s not served after reopen", kk[0], kk[1])
		}
		seen[kk[0]+"/"+kk[1]] = v.N
	}
	if seen["point/k3"] != 3 || seen["campaign/k0"] != 100 {
		t.Fatalf("wrong values: %v", seen)
	}
	var v val
	if r2.Get("point", "k8", &v) || r2.Get("campaign", "k1", &v) {
		t.Fatal("Get served a result that was never put")
	}
}

// TestResultsCrashMidPersist drives every kill-point of the persist
// path — fail on the data write, on the fsync, on the rename — and
// proves the invariant each time: the store reopens with only fully
// persisted results, and nothing corrupt is ever served.
func TestResultsCrashMidPersist(t *testing.T) {
	type val struct {
		N int `json:"n"`
	}
	arm := map[string]func(*faultfs.Fault){
		"torn-write":  func(f *faultfs.Fault) { f.FailAfterWrites(0, true) },
		"enospc":      func(f *faultfs.Fault) { f.SetErr(faultfs.ENOSPC); f.FailAfterWrites(0, false) },
		"sync-fault":  func(f *faultfs.Fault) { f.FailAfterSyncs(0) },
		"rename-lost": func(f *faultfs.Fault) { f.FailAfterRenames(0) },
	}
	for name, armFault := range arm {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fault := faultfs.New(nil)
			r, err := OpenResultsFS(fault, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Put("point", "good", val{N: 1}); err != nil {
				t.Fatal(err)
			}
			armFault(fault)
			if err := r.Put("point", "doomed", val{N: 2}); err == nil {
				t.Fatal("persist through tripped failpoint reported success")
			}

			r2, err := OpenResults(dir)
			if err != nil {
				t.Fatal(err)
			}
			var good, doomed val
			if n, _ := r2.Stats(); n != 1 || !r2.Get("point", "good", &good) || good.N != 1 || r2.Get("point", "doomed", &doomed) {
				t.Fatalf("after %s: %d results, good=%+v doomed=%+v; want only good", name, n, good, doomed)
			}
		})
	}
}

// TestResultsCorruptFileQuarantined: a bit-rotted result file must be
// quarantined when read, never served, and leave the stored count.
func TestResultsCorruptFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("replay", "alpha", map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("replay", "beta", map[string]int{"v": 2}); err != nil {
		t.Fatal(err)
	}
	// Rot one of the two files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rotted := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".res") && !rotted {
			path := filepath.Join(dir, e.Name())
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)-1] ^= 0xff
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			rotted = true
		}
	}

	r2, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, key := range []string{"alpha", "beta"} {
		var v map[string]int
		if r2.Get("replay", key, &v) {
			served++
		}
	}
	if served != 1 {
		t.Fatalf("served %d results from a store with one rotted file, want 1", served)
	}
	if n, q := r2.Stats(); n != 1 || q != 1 {
		t.Fatalf("stored %d, quarantined %d files, want 1 and 1", n, q)
	}
	if qs, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(qs) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(qs), err)
	}
}

// TestResultsCountsNames: the stored count counts names, not renames —
// re-persisting a result replaces its file without counting it twice.
func TestResultsCountsNames(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.Put("point", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := r.Stats(); n != 1 {
		t.Fatalf("two Puts of one (kind, key) count %d results, want 1", n)
	}
	var v int
	if !r.Get("point", "k", &v) || v != 1 {
		t.Fatalf("Get = %d, want the second Put's value 1", v)
	}
}

// TestResultsGetMisses: a read fault and a value that no longer
// decodes are plain misses — the file stays put, counted and
// unquarantined, for a later read or a re-persist.
func TestResultsGetMisses(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(nil)
	r, err := OpenResultsFS(fault, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("point", "k", map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	fault.FailAfterReads(0)
	var v map[string]int
	if r.Get("point", "k", &v) {
		t.Fatal("Get served a result through a failing read")
	}
	fault.Reset()
	var wrongType string
	if r.Get("point", "k", &wrongType) {
		t.Fatal("Get served a value that does not decode into its target")
	}
	if n, q := r.Stats(); n != 1 || q != 0 {
		t.Fatalf("stored %d, quarantined %d after misses, want 1 and 0", n, q)
	}
	if !r.Get("point", "k", &v) || v["v"] != 1 {
		t.Fatalf("Get after the fault cleared = %v, want v=1", v)
	}
}

// TestResultsStaleTempSwept: temp files a crash left behind must be
// removed at open, not accumulate forever.
func TestResultsStaleTempSwept(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".res-stale123"), []byte("half a result"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenResults(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".res-stale123")); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived open: %v", err)
	}
}
