package gups

import (
	"testing"
)

func TestRunRacySingleThreadIsExact(t *testing.T) {
	// With one thread there are no races: verification must be exact.
	table, err := RunRacy(10, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := ErrorRate(table, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Fatalf("single-threaded racy run has error rate %v", rate)
	}
}

func TestRunRacyErrorRateWithinHPCCTolerance(t *testing.T) {
	// Heavy contention: small table, many threads. HPCC tolerates up
	// to 1% of entries wrong; with a small table, contention is far
	// above realistic, so allow a looser bound while still requiring
	// that most updates land.
	const logSize, updates, threads = 12, 1 << 16, 8
	table, err := RunRacy(logSize, updates, threads)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := ErrorRate(table, updates, threads)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 0.25 {
		t.Fatalf("error rate %v: more than a quarter of entries lost", rate)
	}
}

func TestRunRacyValidation(t *testing.T) {
	if _, err := RunRacy(2, 10, 1); err == nil {
		t.Error("tiny table accepted")
	}
	if _, err := RunRacy(10, 0, 1); err == nil {
		t.Error("zero updates accepted")
	}
	if _, err := RunRacy(10, 10, 0); err == nil {
		t.Error("zero threads accepted")
	}
}

// ErrorRate re-applies the update streams serially and reports the
// fraction of table entries that did not return to their initial
// value — the quantity the HPCC verification bounds at 1%.
func ErrorRate(table []uint64, updates int64, threads int) (float64, error) {
	errs, err := Verify(table, updates, threads)
	if err != nil {
		return 0, err
	}
	return float64(errs) / float64(len(table)), nil
}
