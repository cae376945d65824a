package harness

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
	"repro/internal/workloads/dgemm"
	"repro/internal/workloads/graph500"
	"repro/internal/workloads/gups"
	"repro/internal/workloads/latbench"
	"repro/internal/workloads/minife"
	"repro/internal/workloads/stream"
	"repro/internal/workloads/xsbench"
)

// Eval evaluates one resolved campaign point: service.Executor.RunPoint,
// or a server's cached point path.
type Eval func(context.Context, campaign.Point) (campaign.Outcome, error)

// Runner runs experiments on one machine: figure panels as campaign
// points through Eval, Table I, Table II and the latency probe straight
// from Sys.
type Runner struct {
	SKU  string       // stamped on every figure point
	Sys  *core.System // the SKU's machine
	Eval Eval
}

// Experiment is one reproducible table or figure: a figure panel as
// data, or a table read off the machine.
type Experiment struct {
	ID    string
	Title string
	panel *panel
	table func(*core.System) (*Table, error)
}

// panel is one figure as data: the campaign axis it evaluates and the
// layout of the table its outcomes fill.
type panel struct {
	title    string
	workload string
	configs  []engine.MemoryConfig
	sizes    []units.Bytes
	threads  []int
	// byThreads makes one row per thread count at the panel's single
	// size (Fig. 6); otherwise there is one row per size, at x(size),
	// and one value column per (config, thread count).
	byThreads bool
	x         func(units.Bytes) float64
	xLabel    string
	xFmt      string
	valFmt    string
	derived   []derived
	notes     []string
}

// derived is a column computed from a row's value columns.
type derived struct {
	name     string
	op       op
	num, den int // value-column indices
}

type op int

const (
	ratio   op = iota // num / den
	speedup           // num / num in the first row
	gapPct            // (num - den) / den, in percent
)

// vsDRAM are the improvement columns of Fig. 2 and Fig. 4's right-hand
// axes.
var vsDRAM = []derived{{"HBM/DRAM", ratio, 1, 0}, {"Cache/DRAM", ratio, 2, 0}}

// configSweep is a Fig. 2/4 panel: sizes x the paper's configurations
// at 64 threads.
func configSweep(title, name string, sizes []units.Bytes, valFmt string, notes ...string) *panel {
	return &panel{
		title: title, workload: name, configs: engine.PaperConfigs(), sizes: sizes, threads: []int{64},
		x: units.Bytes.GiBf, xLabel: "Size (GB)", xFmt: "%.1f", valFmt: valFmt,
		derived: vsDRAM, notes: notes,
	}
}

// threadSweep is a Fig. 6 panel: the paper's thread counts x its
// configurations at the workload's Fig. 6 size, with speedups over 64
// threads.
func threadSweep(title, name string, size units.Bytes, valFmt, note string) *panel {
	return &panel{
		title:    fmt.Sprintf("%s (problem size %.1f GB)", title, size.GiBf()),
		workload: name, configs: engine.PaperConfigs(), sizes: []units.Bytes{size}, threads: workload.PaperThreads(),
		byThreads: true, xLabel: "Threads", xFmt: "%.0f", valFmt: valFmt,
		derived: []derived{{"DRAM spdup", speedup, 0, 0}, {"HBM spdup", speedup, 1, 1}, {"Cache spdup", speedup, 2, 2}},
		notes:   []string{note},
	}
}

// All returns every experiment in paper order.
func All() []Experiment {
	flat := []engine.MemoryConfig{engine.DRAM, engine.HBM}
	return []Experiment{
		{ID: "table1", Title: "List of Evaluated Applications", table: Table1},
		{ID: "table2", Title: "NUMA distances (numactl --hardware)", table: Table2},
		{ID: "latency", Title: "Idle memory latencies (§IV-A)", table: LatencyProbe},
		{ID: "fig2", Title: "STREAM triad bandwidth vs size, 64 threads", panel: configSweep(
			"STREAM triad bandwidth (GB/s), 64 threads", "STREAM", stream.Model{}.PaperSizes(), "%.0f",
			"paper: DRAM 77 GB/s, HBM 330 GB/s, cache ~260 peak then cliff below DRAM past ~24 GB")},
		{ID: "fig3", Title: "Dual random read latency vs block size", panel: &panel{
			title: "Dual random read latency (ns)", workload: "TinyMemBench", configs: flat,
			sizes: latbench.Model{}.PaperSizes(), threads: []int{1},
			x: units.Bytes.MiBf, xLabel: "Block (MiB)", xFmt: "%.3f", valFmt: "%.1f",
			derived: []derived{{"Gap (%)", gapPct, 1, 0}},
			notes:   []string{"paper: ~10 ns under 1 MB, ~200 ns to 64 MB, rising past 128 MB; DRAM 15-20% faster"},
		}},
		{ID: "fig4a", Title: "DGEMM GFLOPS vs array size", panel: configSweep(
			"DGEMM (GFLOPS), 64 threads", "DGEMM", dgemm.Model{}.PaperSizes(), "%.0f")},
		{ID: "fig4b", Title: "MiniFE CG MFLOPS vs matrix size", panel: configSweep(
			"MiniFE CG (MFLOPS), 64 threads", "MiniFE", minife.Model{}.PaperSizes(), "%.0f")},
		{ID: "fig4c", Title: "GUPS vs table size", panel: configSweep(
			"GUPS (giga-updates/s), 64 threads", "GUPS", gups.Model{}.PaperSizes(), "%.5f")},
		{ID: "fig4d", Title: "Graph500 TEPS vs graph size", panel: configSweep(
			"Graph500 (TEPS), 64 threads", "Graph500", graph500.Model{}.PaperSizes(), "%.3g")},
		{ID: "fig4e", Title: "XSBench lookups/s vs problem size", panel: configSweep(
			"XSBench (lookups/s), 64 threads", "XSBench", xsbench.Model{}.PaperSizes(), "%.3g")},
		{ID: "fig5", Title: "STREAM bandwidth vs size per hardware-thread count", panel: &panel{
			title: "STREAM bandwidth (GB/s) by hardware threads/core", workload: "STREAM", configs: flat,
			sizes: stream.Model{}.Fig5Sizes(), threads: workload.PaperThreads(),
			x: units.Bytes.GiBf, xLabel: "Size (GB)", xFmt: "%.0f", valFmt: "%.0f",
			notes: []string{"paper: HBM ht=2 reaches 1.27x ht=1 (up to ~420-450 GB/s); DRAM lines overlap"},
		}},
		{ID: "fig6a", Title: "DGEMM GFLOPS vs threads", panel: threadSweep("DGEMM GFLOPS vs threads", "DGEMM",
			dgemm.Model{}.Fig6Size(), "%.0f", "paper: 1.7x at 192 threads on HBM; 256-thread runs do not complete")},
		{ID: "fig6b", Title: "MiniFE CG MFLOPS vs threads", panel: threadSweep("MiniFE CG MFLOPS vs threads", "MiniFE",
			minife.Model{}.Fig6Size(), "%.0f", "paper: 1.7x at 192 threads on HBM; 3.8x vs DRAM with 4 HT/core")},
		{ID: "fig6c", Title: "Graph500 TEPS vs threads", panel: threadSweep("Graph500 TEPS vs threads", "Graph500",
			graph500.Model{}.Fig6Size(), "%.3g", "paper: every configuration peaks at 128 threads (~1.5x); DRAM stays best")},
		{ID: "fig6d", Title: "XSBench lookups/s vs threads", panel: threadSweep("XSBench lookups/s vs threads", "XSBench",
			xsbench.Model{}.Fig6Size(), "%.3g", "paper: 2.5x at 256 threads on HBM/cache, 1.5x on DRAM; HBM overtakes DRAM")},
	}
}

// ByID returns one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// Resolve canonicalises an experiment list: "all" expands to every
// experiment, duplicates drop, and the ids come back in paper order.
// An unknown id is an error naming it.
func Resolve(ids []string) ([]string, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id != "all" {
			if _, err := ByID(id); err != nil {
				return nil, err
			}
		}
		want[id] = true
	}
	var out []string
	for _, e := range All() {
		if want["all"] || want[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out, nil
}

// Run produces one experiment's table.
func (r Runner) Run(ctx context.Context, e Experiment) (*Table, error) {
	var t *Table
	var err error
	if e.table != nil {
		t, err = e.table(r.Sys)
	} else {
		t, err = r.runPanel(ctx, e.ID, e.panel)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", e.ID, err)
	}
	return t, nil
}

// runPanel evaluates every point of p, in (config, size, threads)
// order, and lays the outcomes out as p's table.
func (r Runner) runPanel(ctx context.Context, id string, p *panel) (*Table, error) {
	cells := make([]Cell, 0, len(p.configs)*len(p.sizes)*len(p.threads))
	for _, cfg := range p.configs {
		for _, size := range p.sizes {
			for _, th := range p.threads {
				out, err := r.Eval(ctx, campaign.Point{Workload: p.workload, Config: cfg, Size: size,
					Threads: th, SKU: r.SKU, Fidelity: campaign.FidelityModel})
				if err != nil {
					return nil, err
				}
				cells = append(cells, Cell{Value: out.Value, Unavailable: out.Unavailable})
			}
		}
	}
	at := func(c, s, th int) Cell { return cells[(c*len(p.sizes)+s)*len(p.threads)+th] }

	t := &Table{ID: id, Title: p.title, XLabel: p.xLabel, XFmt: p.xFmt, ValFmt: p.valFmt, Notes: p.notes}
	for _, cfg := range p.configs {
		if p.byThreads || len(p.threads) == 1 {
			t.Cols = append(t.Cols, cfg.Kind.String())
			continue
		}
		for _, th := range p.threads {
			// Hardware threads per core of the 64-core 7210.
			t.Cols = append(t.Cols, fmt.Sprintf("%s ht=%d", cfg.Kind, th/64))
		}
	}
	for _, d := range p.derived {
		t.Cols = append(t.Cols, d.name)
	}
	if p.byThreads {
		for th, threads := range p.threads {
			row := Row{X: float64(threads)}
			for c := range p.configs {
				row.Cells = append(row.Cells, at(c, 0, th))
			}
			t.Rows = append(t.Rows, row)
		}
	} else {
		for s, size := range p.sizes {
			row := Row{X: p.x(size)}
			for c := range p.configs {
				for th := range p.threads {
					row.Cells = append(row.Cells, at(c, s, th))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	values := len(t.Cols) - len(p.derived)
	for i := range t.Rows {
		row := t.Rows[i].Cells[:values]
		for _, d := range p.derived {
			t.Rows[i].Cells = append(t.Rows[i].Cells, d.cell(row, t.Rows[0].Cells))
		}
	}
	return t, nil
}

// cell computes d for one row, given the table's first row.
func (d derived) cell(row, first []Cell) Cell {
	num, den := row[d.num], row[d.den]
	if d.op == speedup {
		den = first[d.den]
	}
	switch {
	case num.Unavailable != "":
		return Cell{Unavailable: num.Unavailable}
	case den.Unavailable != "":
		return Cell{Unavailable: den.Unavailable}
	case den.Value == 0:
		return Cell{Unavailable: "zero baseline"}
	case d.op == gapPct:
		return Cell{Value: (num.Value - den.Value) / den.Value * 100}
	}
	return Cell{Value: num.Value / den.Value}
}

// Table1 regenerates Table I from the registered workload metadata.
func Table1(sys *core.System) (*Table, error) {
	t := &Table{
		ID: "table1", Title: "List of Evaluated Applications",
		XLabel: "#", XFmt: "%.0f", ValFmt: "%s",
		Cols: []string{"Application", "Type", "Access Pattern", "Max. Scale"},
	}
	// Table I is textual; fold it into notes for rendering fidelity.
	for i, info := range sys.TableIRows() {
		t.Rows = append(t.Rows, Row{X: float64(i + 1), Cells: make([]Cell, 4)})
		t.Notes = append(t.Notes, fmt.Sprintf("%-10s %-15s %-12s %3.0f GB",
			info.Name, info.Class, info.Pattern, info.MaxScale.GiBf()))
	}
	return t, nil
}

// Table2 regenerates Table II: the NUMA distance matrices of flat and
// cache mode.
func Table2(sys *core.System) (*Table, error) {
	t := &Table{
		ID: "table2", Title: "NUMA distances (numactl --hardware)",
		XLabel: "mode", XFmt: "%.0f", ValFmt: "%s",
	}
	flat, err := sys.Machine.NUMATopology(engine.HBM)
	if err != nil {
		return nil, err
	}
	cm, err := sys.Machine.NUMATopology(engine.Cache)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "flat mode:\n"+flat.HardwareString())
	t.Notes = append(t.Notes, "cache mode:\n"+cm.HardwareString())
	return t, nil
}

// LatencyProbe reports the idle pointer-chase latencies of §IV-A.
func LatencyProbe(sys *core.System) (*Table, error) {
	d, h := sys.Machine.IdleLatencies()
	t := &Table{
		ID: "latency", Title: "Idle memory latency (ns)",
		XLabel: "probe", XFmt: "%.0f", ValFmt: "%.1f",
		Cols: []string{"DRAM", "HBM", "HBM/DRAM"},
		Rows: []Row{{X: 1, Cells: []Cell{
			{Value: float64(d)}, {Value: float64(h)}, {Value: float64(h) / float64(d)},
		}}},
		Notes: []string{"paper: 130.4 ns DRAM, 154.0 ns HBM (~18% gap)"},
	}
	return t, nil
}
