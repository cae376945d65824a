package gups

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestNextRandomSequence(t *testing.T) {
	// The HPCC LCG from seed 1 must be deterministic and non-trivial.
	x := uint64(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		x = NextRandom(x)
		if seen[x] {
			t.Fatalf("short cycle after %d steps", i)
		}
		seen[x] = true
	}
	if StartingSeed(0) != 1 {
		t.Error("StartingSeed(0) should be the initial seed")
	}
	if StartingSeed(5) == StartingSeed(6) {
		t.Error("consecutive starting seeds equal")
	}
}

func TestRunAndVerify(t *testing.T) {
	table, err := Run(10, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 1024 {
		t.Fatalf("table size %d", len(table))
	}
	errs, err := Verify(table, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	if errs != 0 {
		t.Fatalf("%d cells failed verification (locked updates must be exact)", errs)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(3, 10, 1); err == nil {
		t.Error("tiny logSize accepted")
	}
	if _, err := Run(40, 10, 1); err == nil {
		t.Error("huge logSize accepted")
	}
	if _, err := Run(10, 0, 1); err == nil {
		t.Error("zero updates accepted")
	}
	if _, err := Run(10, 10, 0); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := Verify(make([]uint64, 3), 1, 1); err == nil {
		t.Error("non-power-of-two table accepted")
	}
}

func TestRunVerifyProperty(t *testing.T) {
	f := func(updatesRaw uint16, threadsRaw uint8) bool {
		updates := int64(updatesRaw%2000) + 1
		threads := int(threadsRaw%8) + 1
		table, err := Run(8, updates, threads)
		if err != nil {
			return false
		}
		errs, err := Verify(table, updates, threads)
		return err == nil && errs == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestModelFig4cShape(t *testing.T) {
	m := engine.Default()
	mdl := Model{}

	// Absolute value near the paper's ~1.07e-2 GUPS.
	d, err := mdl.Predict(m, engine.DRAM, units.GB(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.009 || d < 0.0095 && d > 0.013 {
		t.Errorf("GUPS = %v, want ~0.0107", d)
	}

	// Ordering at every size that fits: DRAM >= Cache >= HBM (the
	// paper's latency-bound ordering).
	for _, s := range mdl.PaperSizes() {
		dv, err := mdl.Predict(m, engine.DRAM, s, 64)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := mdl.Predict(m, engine.Cache, s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if dv < cv {
			t.Errorf("size %v: DRAM (%v) below cache (%v)", s, dv, cv)
		}
		hv, err := mdl.Predict(m, engine.HBM, s, 64)
		if err != nil {
			continue // larger than HBM
		}
		if cv < hv {
			t.Errorf("size %v: cache (%v) below HBM (%v)", s, cv, hv)
		}
	}

	// Near-flat with table size: max/min within a few percent.
	v1, _ := mdl.Predict(m, engine.DRAM, units.GB(1), 64)
	v32, _ := mdl.Predict(m, engine.DRAM, units.GB(32), 64)
	if r := v1 / v32; r < 0.95 || r > 1.1 {
		t.Errorf("GUPS size sensitivity = %.3f, want ~1 (flat panels in Fig. 4c)", r)
	}
}

func TestModelInfo(t *testing.T) {
	info := Model{}.Info()
	if info.Name != "GUPS" || info.Class != workload.ClassDataAnalytics ||
		info.Pattern != workload.PatternRandom || info.MaxScale != units.GB(32) {
		t.Errorf("Table I row wrong: %+v", info)
	}
	if (Model{}).Fig6Size() != 0 {
		t.Error("GUPS has no Fig. 6 panel")
	}
	if len(Model{}.PaperSizes()) != 6 {
		t.Error("Fig. 4c has 6 sizes")
	}
}

// Verify re-applies the same update streams (XOR is an involution per
// value) and counts cells that fail to return to their initial value.
// The reference benchmark allows up to 1% errors; a single-threaded
// re-application must yield zero here because updates were locked.
func Verify(table []uint64, updates int64, threads int) (int64, error) {
	size := int64(len(table))
	if size == 0 || size&(size-1) != 0 {
		return 0, fmt.Errorf("gups: table size %d not a power of two", size)
	}
	mask := uint64(size - 1)
	per := updates / int64(threads)
	for t := 0; t < threads; t++ {
		n := per
		if t == threads-1 {
			n = updates - per*int64(threads-1)
		}
		x := StartingSeed(int64(t)*97 + 1)
		for i := int64(0); i < n; i++ {
			x = NextRandom(x)
			table[x&mask] ^= x
		}
	}
	var errs int64
	for i, v := range table {
		if v != uint64(i) {
			errs++
		}
	}
	return errs, nil
}
