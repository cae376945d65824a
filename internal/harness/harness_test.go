package harness

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

func sys(t *testing.T) *core.System {
	t.Helper()
	s, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllExperimentsRun(t *testing.T) {
	s := sys(t)
	for _, e := range All() {
		tbl, err := e.Run(s)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if tbl.ID != e.ID {
			t.Errorf("%s: table id %q", e.ID, tbl.ID)
		}
		out := tbl.Render()
		if !strings.Contains(out, strings.ToUpper(e.ID)) {
			t.Errorf("%s: render missing header:\n%s", e.ID, out)
		}
		_ = tbl.RenderCSV()
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestCellFormat(t *testing.T) {
	if got := (Cell{Value: 3.14159}).Format("%.2f"); got != "3.14" {
		t.Errorf("value cell = %q", got)
	}
	nofit := engine.ErrDoesNotFit{Config: engine.HBM, Need: 20 * units.GiB, Have: 16 * units.GiB}
	if got := (Cell{Err: nofit}).Format("%.2f"); got != "-" {
		t.Errorf("does-not-fit cell = %q (paper prints no bar)", got)
	}
	if got := (Cell{Err: workload.ErrNotMeasured}).Format("%.2f"); got != "-" {
		t.Errorf("not-measured cell = %q", got)
	}
	if got := (Cell{Err: errors.New("boom")}).Format("%.2f"); got != "err" {
		t.Errorf("error cell = %q", got)
	}
}

func TestTableAccessors(t *testing.T) {
	s := sys(t)
	tbl, err := Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Col("DRAM"); err != nil {
		t.Error(err)
	}
	if _, err := tbl.Col("NOPE"); err == nil {
		t.Error("unknown column accepted")
	}
	v, err := tbl.ValueAt(8, "DRAM")
	if err != nil {
		t.Fatal(err)
	}
	if v < 70 || v > 80 {
		t.Errorf("fig2 DRAM@8GB = %v", v)
	}
	if _, err := tbl.ValueAt(7.77, "DRAM"); err == nil {
		t.Error("missing row accepted")
	}
	// Absent cells (HBM beyond 16 GB) surface as errors from ValueAt.
	if _, err := tbl.ValueAt(20, "HBM"); err == nil {
		t.Error("absent cell accepted")
	}
}

func TestFig2CSV(t *testing.T) {
	s := sys(t)
	tbl, _ := Fig2(s)
	csv := tbl.RenderCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(tbl.Rows)+1 {
		t.Fatalf("csv has %d lines for %d rows", len(lines), len(tbl.Rows))
	}
	if !strings.HasPrefix(lines[0], "Size (GB),DRAM,HBM,Cache Mode") {
		t.Errorf("csv header %q", lines[0])
	}
	// Absent HBM cells are empty fields, not zeros.
	last := lines[len(lines)-1]
	if !strings.Contains(last, ",,") {
		t.Errorf("expected empty field for absent HBM at 40 GB: %q", last)
	}
}

func TestTable1HasFiveApplications(t *testing.T) {
	s := sys(t)
	tbl, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Notes) != 5 {
		t.Fatalf("Table I rows = %d, want 5", len(tbl.Notes))
	}
	joined := strings.Join(tbl.Notes, "\n")
	for _, name := range []string{"DGEMM", "MiniFE", "GUPS", "Graph500", "XSBench"} {
		if !strings.Contains(joined, name) {
			t.Errorf("Table I missing %s", name)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	s := sys(t)
	tbl, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tbl.Notes, "\n")
	for _, want := range []string{"  10   31", "  31   10", "available: 2 nodes", "available: 1 nodes"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestVerifyAllPasses(t *testing.T) {
	s := sys(t)
	checks, err := VerifyAll(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 25 {
		t.Fatalf("only %d checks; expected full coverage of tables+figures", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s / %s: paper %s, got %s — FAIL", c.Experiment, c.Name, c.Paper, c.Got)
		}
	}
	// Every figure and table is covered.
	covered := map[string]bool{}
	for _, c := range checks {
		covered[c.Experiment] = true
	}
	for _, id := range []string{"latency", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig5", "fig6a", "fig6b", "fig6c", "fig6d"} {
		if !covered[id] {
			t.Errorf("no checks for %s", id)
		}
	}
}

// TestRunAllMatchesSerial requires the concurrent pool to produce the
// same tables, in the same order, as a serial loop over All().
func TestRunAllMatchesSerial(t *testing.T) {
	s := sys(t)
	serial := RunAll(s, 1)
	concurrent := RunAll(s, 8)
	if len(serial) != len(concurrent) || len(serial) != len(All()) {
		t.Fatalf("result lengths: serial %d, concurrent %d, experiments %d",
			len(serial), len(concurrent), len(All()))
	}
	for i := range serial {
		if serial[i].Err != nil || concurrent[i].Err != nil {
			t.Fatalf("%s: serial err %v, concurrent err %v",
				serial[i].Experiment.ID, serial[i].Err, concurrent[i].Err)
		}
		if serial[i].Experiment.ID != concurrent[i].Experiment.ID {
			t.Fatalf("order diverged at %d: %s vs %s", i,
				serial[i].Experiment.ID, concurrent[i].Experiment.ID)
		}
		if serial[i].Table.Render() != concurrent[i].Table.Render() {
			t.Errorf("%s: concurrent table differs from serial", serial[i].Experiment.ID)
		}
	}
}

// TestVerifyAllConcurrentDeterministic runs VerifyAll with eight
// experiment workers and requires the exact check list of a serial
// run: same order, same rendered values, all passing.
func TestVerifyAllConcurrentDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	s := sys(t)
	first, err := VerifyAll(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := VerifyAll(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(again) {
		t.Fatalf("check counts differ: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("check %d differs across runs: %+v vs %+v", i, first[i], again[i])
		}
		if !first[i].Pass {
			t.Errorf("%s / %s failed under concurrency: paper %s, got %s",
				first[i].Experiment, first[i].Name, first[i].Paper, first[i].Got)
		}
	}
}
