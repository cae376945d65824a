package graph500

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

// The reference implementation's CSR footprint per vertex at
// edgefactor 16: xoff 2x8 B + 32 directed adjacency entries x 8 B =
// 272 B, plus generator slack; 274 B/vertex maps scale 22 to the
// paper's "1.1 GB" graph.
const (
	edgefactor     = 16
	bytesPerVertex = 274
)

// Per-traversed-edge cost model (top-down CSR BFS, 64-bit vertices):
//
//	sequential: the adjacency entry itself (8 B) plus frontier
//	  queue churn (~1 B amortized);
//	random: the parent/visited probe on v, and for claimed vertices
//	  the CAS write-back — about 1.6 line-granule accesses per edge;
//	cpu: bitmap/queue arithmetic between loads.
const (
	seqBytesPerEdge  = 9.0
	randomPerEdge    = 0.8  // parent/visited probe, CAS amortized
	randomMLP        = 1.5  // issue rate throttled by inter-load queue work
	cpuNSPerEdge     = 8.0  // per-thread bitmap/queue work between loads
	atomicNSBase     = 0.35 // aggregate CAS contention coefficient
	atomicExponent   = 1.4  // superlinear growth with hyperthreads/core
	bfsLevels        = 10   // typical Kronecker effective diameter
	vertexDataPerVtx = 9.0  // parent (8 B) + visited bit, the random footprint
)

// ScaleFor returns the Graph500 scale whose CSR footprint best matches
// `size`, and the modelled vertex count.
func ScaleFor(size units.Bytes) (scale int, vertices int64) {
	v := float64(size) / bytesPerVertex
	scale = int(math.Round(math.Log2(v)))
	if scale < 1 {
		scale = 1
	}
	return scale, int64(1) << scale
}

// Model regenerates Fig. 4d (TEPS vs. graph size) and Fig. 6c (TEPS
// vs. threads).
type Model struct{}

var _ workload.Model = Model{}

// Info is Graph500's Table I row.
func (Model) Info() workload.Info {
	return workload.Info{
		Name:     "Graph500",
		Class:    workload.ClassDataAnalytics,
		Pattern:  workload.PatternRandom,
		MaxScale: units.GB(35),
		Metric:   "TEPS",
	}
}

// Predict returns the harmonic-mean TEPS for a graph of `size` bytes.
func (Model) Predict(m *engine.Machine, cfg engine.MemoryConfig, size units.Bytes, threads int) (float64, error) {
	_, vertices := ScaleFor(size)
	if vertices < 2 {
		return 0, fmt.Errorf("graph500: size %v too small", size)
	}
	edges := float64(vertices) * edgefactor * 2 // directed traversals

	// The random component touches the parent/visited arrays.
	vertexData := units.Bytes(float64(vertices) * vertexDataPerVtx)

	// CAS contention grows superlinearly once hyperthreads share
	// cores; it is a serialization effect, so it does not shrink with
	// thread count. It is what puts every configuration's peak at 128
	// threads in Fig. 6c.
	ht := m.Chip.ThreadsPerCoreFor(threads)
	atomicNS := atomicNSBase * math.Pow(float64(ht-1), atomicExponent)

	p := engine.Phase{
		Name:            "bfs",
		SeqBytes:        edges * seqBytesPerEdge,
		SeqFootprint:    size,
		RandomAccesses:  edges * randomPerEdge,
		RandomFootprint: maxBytes(vertexData, 2*units.MiB),
		RandomMLP:       randomMLP,
		SerialNS:        edges*cpuNSPerEdge/float64(threads) + edges*atomicNS,
		Syncs:           2 * bfsLevels,
		ParallelRegions: bfsLevels,
	}
	// The full graph must fit, not just the vertex data.
	if err := m.CheckFit(cfg, size); err != nil {
		return 0, err
	}
	r, err := m.SolvePhase(cfg, threads, p)
	if err != nil {
		return 0, err
	}
	// Directed traversals per BFS over time; the benchmark reports
	// undirected edges (edges/2) per second, harmonically averaged
	// over roots — identical per-root costs make the harmonic mean
	// equal the per-root value.
	teps := (edges / 2) / r.Time.Seconds()
	return teps, nil
}

func maxBytes(a, b units.Bytes) units.Bytes {
	if a > b {
		return a
	}
	return b
}

// PaperSizes is Fig. 4d's x axis: 1.1 to 35 GB (doubling).
func (Model) PaperSizes() []units.Bytes {
	return []units.Bytes{
		units.GB(1.1), units.GB(2.2), units.GB(4.4),
		units.GB(8.8), units.GB(17.5), units.GB(35),
	}
}

// Fig6Size is the fixed size of the Fig. 6c thread sweep (a graph
// that fits every configuration so all three bars exist).
func (Model) Fig6Size() units.Bytes { return units.GB(8.8) }
