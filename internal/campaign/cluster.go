package campaign

import (
	"fmt"
	"sort"
	"strings"
)

// FidelityCluster executes a point through the multi-node cluster
// model (internal/cluster) instead of a single-node prediction: the
// point's Size is the *global* problem, decomposed over Point.Nodes
// KNL nodes connected by an Aries-like interconnect, and the outcome
// records the per-iteration cost under the best per-node memory
// configuration. Cluster points have no memory-config axis — the
// model picks the fastest configuration per decomposition — so Expand
// collapses the Configs axis to one canonical point per (workload,
// size, threads, nodes).
const FidelityCluster = "cluster"

// DefaultNodeCounts is the node-count sweep used when a cluster spec
// names none: the paper's 12-node Aries testbed bracketed by smaller
// and larger decompositions, so the table shows the crossover into
// the §IV-C HBM sweet spot.
func DefaultNodeCounts() []int { return []int{1, 2, 4, 8, 12, 16} }

// ClusterStats carries the multi-node detail of a FidelityCluster
// point: the decomposition, the winning per-node configuration, and
// the cost split between compute and network.
type ClusterStats struct {
	// PerNodeSize is the sub-problem each node is assigned, in
	// canonical form ("10.0 GiB").
	PerNodeSize string `json:"per_node_size"`
	// Config is the best per-node memory configuration ("HBM",
	// "Cache Mode", ...); empty when the decomposition fits nowhere.
	Config string `json:"config,omitempty"`
	// ComputeNS, HaloNS and ReduceNS split the per-iteration time into
	// the model evaluation, the halo exchange and the allreduce.
	ComputeNS float64 `json:"compute_ns"`
	HaloNS    float64 `json:"halo_ns"`
	ReduceNS  float64 `json:"reduce_ns"`
	// TotalNS is the predicted per-iteration time (= the outcome's
	// Value).
	TotalNS float64 `json:"total_ns"`
	// Efficiency is the parallel efficiency vs a single node running
	// the global problem under its own best configuration.
	Efficiency float64 `json:"efficiency"`
	// FitsHBM reports whether the winning configuration binds the
	// sub-problem to HBM — the §IV-C decomposition target.
	FitsHBM bool `json:"fits_hbm"`
}

// MinHBMNodes is the decomposition advisor's answer for one swept
// workload: the smallest node count whose best per-node configuration
// binds to HBM (0 when no swept decomposition fits) — §IV-C's "with
// enough nodes, assign each node a sub-problem close to the HBM
// capacity".
func MinHBMNodes(outcomes []Outcome) int {
	min := 0
	for _, o := range outcomes {
		if o.Cluster == nil || !o.Cluster.FitsHBM {
			continue
		}
		if min == 0 || o.Point.Nodes < min {
			min = o.Point.Nodes
		}
	}
	return min
}

// formatEfficiency renders a parallel-efficiency cell. Zero means the
// reference is undefined — the global problem fits no single-node
// configuration — and renders as a dash, not a misleading 0.00.
func formatEfficiency(eff float64) string {
	if eff <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", eff)
}

// ClusterTableHeader is the scaling table's column header, shared by
// campaign tables and the service's /v1/cluster rendering so the two
// surfaces cannot drift.
func ClusterTableHeader() string {
	return fmt.Sprintf("%-7s %-12s %-14s %12s %8s %8s %8s\n",
		"nodes", "per-node", "config", "iter ms", "halo%", "reduce%", "eff")
}

// RenderClusterRow renders one node count of a scaling table. Nil
// stats is the "no bar" dash row (the decomposition fits no per-node
// configuration).
func RenderClusterRow(nodes int, s *ClusterStats) string {
	if s == nil {
		return fmt.Sprintf("%-7d %-12s %-14s %12s %8s %8s %8s\n",
			nodes, "-", "-", "-", "-", "-", "-")
	}
	marker := ""
	if s.FitsHBM {
		marker = "  <- fits HBM"
	}
	return fmt.Sprintf("%-7d %-12s %-14s %12.3f %8.2f %8.2f %8s%s\n",
		nodes, s.PerNodeSize, s.Config, s.TotalNS/1e6,
		100*s.HaloNS/s.TotalNS, 100*s.ReduceNS/s.TotalNS, formatEfficiency(s.Efficiency), marker)
}

// RenderClusterSummary renders the decomposition advisor's trailing
// line: the minimum HBM-fitting node count, or the no-fit verdict.
func RenderClusterSummary(minHBMNodes int) string {
	if minHBMNodes > 0 {
		return fmt.Sprintf("sub-problem first fits HBM at %d nodes (the §IV-C decomposition rule)\n", minHBMNodes)
	}
	return "no swept node count decomposes into HBM-resident sub-problems\n"
}

// clusterTables renders cluster-fidelity outcomes: one scaling table
// per (workload, size, threads) group, rows are node counts, columns
// are the decomposition (per-node working set), the winning per-node
// configuration, the iteration time and its halo/allreduce overhead
// split, and the parallel efficiency. A trailing line reports the
// minimum HBM-fitting node count — the §IV-C answer. Node counts that
// cannot run anywhere (over-capacity per-node working sets) render as
// dash rows.
func clusterTables(outcomes []Outcome) []string {
	type groupKey struct {
		workload string
		size     int64
		threads  int
	}
	var order []groupKey
	groups := make(map[groupKey][]Outcome)
	for _, o := range outcomes {
		k := groupKey{o.Point.Workload, int64(o.Point.Size), o.Point.Threads}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], o)
	}
	var tables []string
	for _, k := range order {
		tables = append(tables, renderClusterGroup(groups[k]))
	}
	return tables
}

// renderClusterGroup renders one workload x global size x threads
// scaling table.
func renderClusterGroup(outcomes []Outcome) string {
	sorted := append([]Outcome(nil), outcomes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Point.Nodes < sorted[j].Point.Nodes })
	p := sorted[0].Point

	var b strings.Builder
	fmt.Fprintf(&b, "%s, %v global, %d threads (per-iteration cost, best per-node configuration)\n",
		p.Workload, p.Size, p.Threads)
	b.WriteString(ClusterTableHeader())
	for _, o := range sorted {
		// A nil Cluster is an over-capacity (or otherwise unrunnable)
		// decomposition: the paper prints no bar.
		b.WriteString(RenderClusterRow(o.Point.Nodes, o.Cluster))
	}
	b.WriteString(RenderClusterSummary(MinHBMNodes(sorted)))
	return b.String()
}
