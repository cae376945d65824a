package minife

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

// Bytes-per-row accounting for the 27-point CSR operator (interior
// rows dominate at scale):
//
//	matrix values 27 x 8 B + columns 27 x 4 B + rowptr 8 B = 332 B
//
// which is what Fig. 4b's "Matrix Size" axis measures.
const bytesPerRow = 332

// Per-CG-iteration traffic per row. The matrix streams once per SpMV
// (332 B); the vector traffic comprises the SpMV x-gather feed and y
// write, two dots reading two vectors each, and three axpys at
// 2 reads + 1 write. The two are modelled as separate phases because
// they behave differently under the MCDRAM cache: the matrix never
// fits (pure streaming), while the five CG vectors are re-touched
// densely within each iteration and stay effectively resident.
const (
	matrixBytesPerRow = 332
	vectorBytesPerRow = 8 + 8 + 4*8 + 9*8
	flopsPerRow       = 2*27 + 10
	randomPerRow      = 1.1  // calibrated: x-vector gathers missing L2
	streamEfficiency  = 0.55 // CG multi-stream+gather vs pure STREAM triad
	reductionsPerIt   = 4
)

// Rows returns the row count for a matrix of `size` bytes.
func Rows(size units.Bytes) int64 { return int64(size) / bytesPerRow }

// Model regenerates Fig. 4b (CG MFLOPS vs. matrix size) and Fig. 6b
// (vs. threads).
type Model struct{}

var _ workload.Model = Model{}

// Info is MiniFE's Table I row.
func (Model) Info() workload.Info {
	return workload.Info{
		Name:     "MiniFE",
		Class:    workload.ClassScientific,
		Pattern:  workload.PatternSequential,
		MaxScale: units.GB(30),
		Metric:   "CG MFLOPS",
	}
}

// Predict returns the CG-phase MFLOPS for a matrix of `size` bytes.
func (Model) Predict(m *engine.Machine, cfg engine.MemoryConfig, size units.Bytes, threads int) (float64, error) {
	rows := Rows(size)
	if rows < 1 {
		return 0, fmt.Errorf("minife: size %v too small", size)
	}
	// The paper scales the problem and reports the CG-phase rate; the
	// rate is iteration-count independent, so model one iteration.
	fRows := float64(rows)

	// Out-of-plane gathers touch the x vector one plane (n^2 rows)
	// away: that plane is the random-access footprint.
	edge := math.Cbrt(fRows)
	planeBytes := units.Bytes(edge * edge * 8)
	vecBytes := units.Bytes(rows * 5 * 8)

	// Total working set must be resident (flat modes).
	if err := m.CheckFit(cfg, size+vecBytes); err != nil {
		return 0, err
	}

	phases := []engine.Phase{
		{
			Name:            "spmv-matrix",
			Flops:           fRows * 2 * 27,
			SeqBytes:        fRows * matrixBytesPerRow,
			SeqFootprint:    size,
			SeqEfficiency:   streamEfficiency,
			RandomAccesses:  fRows * randomPerRow,
			RandomFootprint: maxBytes(planeBytes, 2*units.MiB),
			ParallelRegions: 1,
		},
		{
			Name:  "vector-updates",
			Flops: fRows * 10,
			// Dense intra-iteration reuse keeps the CG vectors
			// effectively resident in the memory-side cache, so their
			// footprint — not the matrix's — governs their hit ratio.
			SeqBytes:        fRows * vectorBytesPerRow,
			SeqFootprint:    vecBytes,
			SeqEfficiency:   streamEfficiency,
			Syncs:           reductionsPerIt,
			ParallelRegions: 3,
		},
	}
	total, _, err := m.SolvePhases(cfg, threads, phases)
	if err != nil {
		return 0, err
	}
	flops := fRows * flopsPerRow
	// flops/ns = GFLOPS; the paper reports MFLOPS.
	return flops / float64(total) * 1000, nil
}

func maxBytes(a, b units.Bytes) units.Bytes {
	if a > b {
		return a
	}
	return b
}

// PaperSizes is Fig. 4b's x axis: 0.1 to 28.8 GB (doubling).
func (Model) PaperSizes() []units.Bytes {
	return []units.Bytes{
		units.GB(0.1), units.GB(0.9), units.GB(1.8), units.GB(3.6),
		units.GB(7.2), units.GB(14.4), units.GB(28.8),
	}
}

// Fig6Size is the fixed size of the Fig. 6b thread sweep.
func (Model) Fig6Size() units.Bytes { return units.GB(7.2) }
