package harness

import (
	"context"
	"fmt"
)

// Check is one paper-vs-reproduction comparison.
type Check struct {
	Experiment string
	Name       string
	Paper      string // what the paper reports
	Got        string // what the reproduction measures
	Pass       bool
}

// VerifyAll runs every experiment and evaluates the qualitative claims
// of the paper against the reproduction. The same claims are enforced
// by the test suite; this function exists so that cmd/figures can emit
// the EXPERIMENTS.md comparison table.
func (r Runner) VerifyAll(ctx context.Context) ([]Check, error) {
	tables := map[string]*Table{}
	for _, e := range All() {
		t, err := r.Run(ctx, e)
		if err != nil {
			return nil, err
		}
		tables[e.ID] = t
	}
	var checks []Check
	add := func(exp, name, paper string, got float64, gotFmt string, pass bool) {
		checks = append(checks, Check{
			Experiment: exp, Name: name, Paper: paper,
			Got: fmt.Sprintf(gotFmt, got), Pass: pass,
		})
	}

	// --- §IV-A idle latencies.
	d, h := r.Sys.Machine.IdleLatencies()
	add("latency", "DRAM idle latency", "130.4 ns", float64(d), "%.1f ns", d == 130.4)
	add("latency", "HBM idle latency", "154.0 ns", float64(h), "%.1f ns", h == 154.0)

	// --- Fig. 2.
	fig2 := tables["fig2"]
	dram8, err := fig2.ValueAt(8, "DRAM")
	if err != nil {
		return nil, err
	}
	add("fig2", "DRAM peak stream", "77 GB/s", dram8, "%.0f GB/s", within(dram8, 77, 1.1))
	hbm8, err := fig2.ValueAt(8, "HBM")
	if err != nil {
		return nil, err
	}
	add("fig2", "HBM stream at 64 threads", "330 GB/s", hbm8, "%.0f GB/s", within(hbm8, 330, 1.1))
	cache8, _ := fig2.ValueAt(8, "Cache Mode")
	add("fig2", "cache-mode peak (half capacity)", "260 GB/s", cache8, "%.0f GB/s", within(cache8, 260, 1.15))
	cache12, _ := fig2.ValueAt(12, "Cache Mode")
	add("fig2", "cache-mode at ~11.4 GB", "125 GB/s", cache12, "%.0f GB/s", within(cache12, 125, 1.35))
	cache24, _ := fig2.ValueAt(24, "Cache Mode")
	dram24, _ := fig2.ValueAt(24, "DRAM")
	add("fig2", "cache-mode below DRAM past ~24 GB", "crossover", cache24/dram24, "%.2fx of DRAM", cache24 < dram24)

	// --- Fig. 3.
	fig3 := tables["fig3"]
	l2tier, _ := fig3.ValueAt(0.125, "DRAM")
	add("fig3", "L2 tier latency (<1 MB)", "~10 ns", l2tier, "%.1f ns", l2tier < 15)
	mid, _ := fig3.ValueAt(16, "DRAM")
	add("fig3", "memory tier latency (2-64 MB)", "~200 ns", mid, "%.0f ns", mid > 150 && mid < 260)
	big, _ := fig3.ValueAt(1024, "DRAM")
	add("fig3", "1 GB latency", "~400 ns", big, "%.0f ns", big > 330 && big < 480)
	gap, _ := fig3.ValueAt(16, "Gap (%)")
	add("fig3", "DRAM faster than HBM", "15-20%", gap, "%.1f%%", gap >= 10 && gap <= 25)

	// --- Fig. 4a.
	fig4a := tables["fig4a"]
	imp, _ := fig4a.ValueAt(6, "HBM/DRAM")
	add("fig4a", "DGEMM HBM improvement", "~2x", imp, "%.2fx", imp >= 1.6 && imp <= 2.6)
	hbm6, _ := fig4a.ValueAt(6, "HBM")
	add("fig4a", "DGEMM HBM GFLOPS", "~600 GFLOPS", hbm6, "%.0f GFLOPS", within(hbm6, 600, 1.35))

	// --- Fig. 4b.
	fig4b := tables["fig4b"]
	impB, _ := fig4b.ValueAt(7.2, "HBM/DRAM")
	add("fig4b", "MiniFE HBM improvement", "~3x", impB, "%.2fx", impB >= 2.4 && impB <= 3.5)
	cacheB, _ := fig4b.ValueAt(28.8, "Cache/DRAM")
	add("fig4b", "MiniFE cache improvement at 2x capacity", "1.05x", cacheB, "%.2fx", cacheB >= 0.9 && cacheB <= 1.25)

	// --- Fig. 4c.
	fig4c := tables["fig4c"]
	gupsD, _ := fig4c.ValueAt(8, "DRAM")
	add("fig4c", "GUPS absolute", "~0.0107 GUPS", gupsD, "%.4f GUPS", within(gupsD, 0.0107, 1.15))
	gupsImp, _ := fig4c.ValueAt(8, "HBM/DRAM")
	add("fig4c", "GUPS: DRAM best", "HBM <= DRAM", gupsImp, "%.3fx", gupsImp <= 1.0)

	// --- Fig. 4d.
	fig4d := tables["fig4d"]
	teps, _ := fig4d.ValueAt(1.1, "DRAM")
	add("fig4d", "Graph500 TEPS scale", "1-2.5e8", teps, "%.3g TEPS", teps >= 1e8 && teps <= 3e8)
	g35, _ := fig4d.ValueAt(35, "Cache/DRAM")
	add("fig4d", "DRAM over cache at 35 GB", "~1.3x", 1/g35, "%.2fx", 1/g35 >= 1.15 && 1/g35 <= 1.5)

	// --- Fig. 4e.
	fig4e := tables["fig4e"]
	xs, _ := fig4e.ValueAt(5.6, "DRAM")
	add("fig4e", "XSBench lookups/s scale", "~2.5-3e6", xs, "%.3g", xs >= 1.5e6 && xs <= 3.5e6)
	xsImp, _ := fig4e.ValueAt(5.6, "HBM/DRAM")
	add("fig4e", "XSBench: DRAM best at 64 threads", "HBM <= DRAM", xsImp, "%.3fx", xsImp <= 1.0)

	// --- Fig. 5.
	fig5 := tables["fig5"]
	h1, _ := fig5.ValueAt(8, "HBM ht=1")
	h2, _ := fig5.ValueAt(8, "HBM ht=2")
	add("fig5", "HBM ht=2 over ht=1", "1.27x", h2/h1, "%.2fx", within(h2/h1, 1.27, 1.07))
	add("fig5", "HBM max with HT", "~420-450 GB/s", h2, "%.0f GB/s", h2 >= 400 && h2 <= 450)
	d1, _ := fig5.ValueAt(8, "DRAM ht=1")
	d4, _ := fig5.ValueAt(8, "DRAM ht=4")
	add("fig5", "DRAM insensitive to HT", "overlapping lines", d4/d1, "%.3fx", within(d4/d1, 1, 1.03))

	// --- Fig. 6a.
	fig6a := tables["fig6a"]
	a192, _ := fig6a.ValueAt(192, "HBM spdup")
	add("fig6a", "DGEMM HBM speedup at 192 threads", "1.7x", a192, "%.2fx", within(a192, 1.7, 1.15))
	c256, _ := fig6a.CellAt(256, "HBM")
	add("fig6a", "DGEMM at 256 threads", "run fails", 0, "absent%.0s", c256.Unavailable != "")

	// --- Fig. 6b.
	fig6b := tables["fig6b"]
	b192, _ := fig6b.ValueAt(192, "HBM spdup")
	add("fig6b", "MiniFE HBM speedup at 192 threads", "1.7x", b192, "%.2fx", b192 >= 1.4 && b192 <= 1.9)
	b256, _ := fig6b.ValueAt(256, "HBM")
	bd64, _ := fig6b.ValueAt(64, "DRAM")
	add("fig6b", "MiniFE HBM@4HT vs DRAM", "3.8x", b256/bd64, "%.2fx", b256/bd64 >= 3.2 && b256/bd64 <= 5.2)

	// --- Fig. 6c.
	fig6c := tables["fig6c"]
	peak128 := true
	for _, col := range []string{"DRAM", "HBM", "Cache Mode"} {
		v64, _ := fig6c.ValueAt(64, col)
		v128, _ := fig6c.ValueAt(128, col)
		v192, _ := fig6c.ValueAt(192, col)
		v256, _ := fig6c.ValueAt(256, col)
		if !(v128 > v64 && v128 > v192 && v128 > v256) {
			peak128 = false
		}
	}
	c128, _ := fig6c.ValueAt(128, "DRAM spdup")
	add("fig6c", "Graph500 peak at 128 threads (all configs)", "best on 128 threads", boolTo01(peak128), "%.0f(1=yes)", peak128)
	add("fig6c", "Graph500 HT speedup", "~1.5x", c128, "%.2fx", c128 >= 1.3 && c128 <= 1.8)
	gd128, _ := fig6c.ValueAt(128, "DRAM")
	gh128, _ := fig6c.ValueAt(128, "HBM")
	add("fig6c", "DRAM remains best", "DRAM best", gd128/gh128, "%.3fx of HBM", gd128 >= gh128)

	// --- Fig. 6d.
	fig6d := tables["fig6d"]
	x256, _ := fig6d.ValueAt(256, "HBM spdup")
	add("fig6d", "XSBench HBM speedup at 256 threads", "2.5x", x256, "%.2fx", x256 >= 2.2 && x256 <= 3.5)
	xd256, _ := fig6d.ValueAt(256, "DRAM spdup")
	add("fig6d", "XSBench DRAM speedup at 256 threads", "1.5x", xd256, "%.2fx", xd256 >= 1.2 && xd256 <= 1.8)
	xh, _ := fig6d.ValueAt(256, "HBM")
	xd, _ := fig6d.ValueAt(256, "DRAM")
	add("fig6d", "HBM overtakes DRAM with HT", "HBM best", xh/xd, "%.2fx over DRAM", xh > xd)

	return checks, nil
}

func within(got, want, factor float64) bool {
	if want == 0 {
		return got == 0
	}
	r := got / want
	return r >= 1/factor && r <= factor
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
