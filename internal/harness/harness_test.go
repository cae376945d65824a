package harness_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/service"
)

func sys(t *testing.T) *core.System {
	t.Helper()
	s, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runner evaluates figure points through the service executor, as
// cmd/figures does.
func runner(t *testing.T) harness.Runner {
	t.Helper()
	r, err := service.NewExecutor().Runner(campaign.DefaultSKU)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fig2 runs the Fig. 2 panel.
func fig2(t *testing.T) *harness.Table {
	t.Helper()
	e, err := harness.ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := runner(t).Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestAllExperimentsRun(t *testing.T) {
	r := runner(t)
	for _, e := range harness.All() {
		tbl, err := r.Run(context.Background(), e)
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
	if _, err := harness.ByID("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestCellFormat(t *testing.T) {
	if got := (harness.Cell{Value: 3.14159}).Format("%.2f"); got != "3.14" {
		t.Errorf("value cell = %q", got)
	}
	if got := (harness.Cell{Unavailable: "working set does not fit HBM"}).Format("%.2f"); got != "-" {
		t.Errorf("unavailable cell = %q (paper prints no bar)", got)
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := fig2(t)
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
	tbl := fig2(t)
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
	tbl, err := harness.Table1(s)
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
	tbl, err := harness.Table2(s)
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
	checks, err := runner(t).VerifyAll(context.Background())
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
