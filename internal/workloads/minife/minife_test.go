package minife

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestAssemble27PointStructure(t *testing.T) {
	mtx, err := Assemble27Point(4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mtx.N != 60 {
		t.Fatalf("N = %d, want 60", mtx.N)
	}
	if err := mtx.Validate(); err != nil {
		t.Fatalf("invalid CSR: %v", err)
	}
	// Interior nodes have 27 neighbours, corners 8.
	interior := false
	corners := 0
	for z := 0; z < 3; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 4; x++ {
				row := int64((z*5+y)*4 + x)
				deg := mtx.RowPtr[row+1] - mtx.RowPtr[row]
				switch {
				case x >= 1 && x <= 2 && y >= 1 && y <= 3 && z == 1:
					if deg != 27 {
						t.Fatalf("interior node (%d,%d,%d) has %d entries", x, y, z, deg)
					}
					interior = true
				case (x == 0 || x == 3) && (y == 0 || y == 4) && (z == 0 || z == 2):
					if deg != 8 {
						t.Fatalf("corner node has %d entries, want 8", deg)
					}
					corners++
				}
			}
		}
	}
	if !interior || corners != 8 {
		t.Fatalf("mesh classification wrong: interior=%v corners=%d", interior, corners)
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble27Point(0, 1, 1); err == nil {
		t.Error("zero mesh accepted")
	}
}

func TestMatrixIsSymmetricProperty(t *testing.T) {
	// Symmetry of the operator: entry (i,j) exists iff (j,i) exists
	// with the same value (both are -1 off-diagonal).
	mtx, err := Assemble27Point(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	get := func(i, j int32) (float64, bool) {
		for k := mtx.RowPtr[i]; k < mtx.RowPtr[i+1]; k++ {
			if mtx.ColIdx[k] == j {
				return mtx.Values[k], true
			}
		}
		return 0, false
	}
	for i := int32(0); i < int32(mtx.N); i++ {
		for k := mtx.RowPtr[i]; k < mtx.RowPtr[i+1]; k++ {
			j := mtx.ColIdx[k]
			v, ok := get(j, i)
			if !ok || v != mtx.Values[k] {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

func TestSpMVIdentityProperty(t *testing.T) {
	mtx, _ := Assemble27Point(4, 4, 4)
	f := func(seed int64) bool {
		// A*0 = 0 and linearity: A(2x) = 2Ax.
		n := mtx.N
		x := make([]float64, n)
		r := seed
		for i := range x {
			r = r*6364136223846793005 + 1442695040888963407
			x[i] = float64(r%1000) / 1000
		}
		y1 := make([]float64, n)
		if err := mtx.SpMV(x, y1); err != nil {
			return false
		}
		x2 := make([]float64, n)
		for i := range x2 {
			x2[i] = 2 * x[i]
		}
		y2 := make([]float64, n)
		if err := mtx.SpMV(x2, y2); err != nil {
			return false
		}
		for i := range y1 {
			if math.Abs(y2[i]-2*y1[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCGSolves(t *testing.T) {
	mtx, err := Assemble27Point(6, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := mtx.N
	// Manufactured solution.
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i%7) - 3
	}
	b := make([]float64, n)
	if err := mtx.SpMV(want, b); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	res, err := CG(mtx, b, x, 1e-10, 500)
	if err != nil {
		t.Fatalf("CG failed after %d iters (res %g): %v", res.Iterations, res.Residual, err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if res.Flops <= 0 {
		t.Error("flops not counted")
	}
}

func TestCGResidualDecreasesProperty(t *testing.T) {
	mtx, _ := Assemble27Point(4, 4, 4)
	n := mtx.N
	f := func(seed int64) bool {
		b := make([]float64, n)
		r := seed
		for i := range b {
			r = r*2862933555777941757 + 3037000493
			b[i] = float64(r % 100)
		}
		// Run CG for k and 2k iterations: residual must not grow.
		x1 := make([]float64, n)
		res1, err1 := CG(mtx, b, x1, 0, 5)
		x2 := make([]float64, n)
		res2, err2 := CG(mtx, b, x2, 0, 10)
		if err1 != nil && !errors.Is(err1, ErrNoConvergence) {
			return false
		}
		if err2 != nil && !errors.Is(err2, ErrNoConvergence) {
			return false
		}
		return res2.Residual <= res1.Residual*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestCGErrors(t *testing.T) {
	mtx, _ := Assemble27Point(2, 2, 2)
	if _, err := CG(mtx, make([]float64, 3), make([]float64, 8), 1e-6, 10); err == nil {
		t.Error("short b accepted")
	}
	if _, err := CG(mtx, make([]float64, 8), make([]float64, 8), 1e-6, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestModelFig4bShape(t *testing.T) {
	m := engine.Default()
	mdl := Model{}

	// HBM ~3x DRAM at a mid size.
	d, err := mdl.Predict(m, engine.DRAM, units.GB(7.2), 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mdl.Predict(m, engine.HBM, units.GB(7.2), 64)
	if err != nil {
		t.Fatal(err)
	}
	if r := h / d; r < 2.4 || r > 3.5 {
		t.Errorf("HBM/DRAM = %.2f, want ~3x", r)
	}
	// Absolutes in the paper's 0.5-1.5e4 MFLOPS band.
	if d < 3500 || d > 7500 {
		t.Errorf("DRAM CG MFLOPS = %.0f, want ~5000", d)
	}
	if h < 11000 || h > 19000 {
		t.Errorf("HBM CG MFLOPS = %.0f, want ~15000", h)
	}

	// Cache-mode improvement decays to ~1.05x at ~2x HBM capacity
	// (the paper's marquee cache-mode result).
	c288, err := mdl.Predict(m, engine.Cache, units.GB(28.8), 64)
	if err != nil {
		t.Fatal(err)
	}
	d288, _ := mdl.Predict(m, engine.DRAM, units.GB(28.8), 64)
	if r := c288 / d288; r < 0.9 || r > 1.25 {
		t.Errorf("cache speedup at 28.8 GB = %.3f, want ~1.05", r)
	}
	// And is much larger while the matrix is comparable to capacity.
	c144, _ := mdl.Predict(m, engine.Cache, units.GB(14.4), 64)
	d144, _ := mdl.Predict(m, engine.DRAM, units.GB(14.4), 64)
	if r := c144 / d144; r < 1.2 {
		t.Errorf("cache speedup at 14.4 GB = %.3f, want >1.2", r)
	}
	// HBM bar disappears beyond capacity.
	if _, err := mdl.Predict(m, engine.HBM, units.GB(28.8), 64); err == nil {
		t.Error("28.8 GB should not fit HBM")
	}
}

func TestModelFig6bThreads(t *testing.T) {
	m := engine.Default()
	mdl := Model{}
	size := mdl.Fig6Size()

	h64, _ := mdl.Predict(m, engine.HBM, size, 64)
	h192, _ := mdl.Predict(m, engine.HBM, size, 192)
	if r := h192 / h64; r < 1.4 || r > 1.9 {
		t.Errorf("HBM 192/64 = %.2f, want ~1.7", r)
	}
	// The paper's 3.8x: HBM with hyper-threading vs DRAM.
	h256, _ := mdl.Predict(m, engine.HBM, size, 256)
	d64, _ := mdl.Predict(m, engine.DRAM, size, 64)
	if r := h256 / d64; r < 3.2 || r > 5.2 {
		t.Errorf("HBM@256 / DRAM@64 = %.2f, want ~3.8-4.8", r)
	}
	// DRAM stays flat.
	d256, _ := mdl.Predict(m, engine.DRAM, size, 256)
	if r := d256 / d64; r > 1.2 {
		t.Errorf("DRAM 256/64 = %.2f, should be ~1", r)
	}
}

func TestRowsAndMatrixBytes(t *testing.T) {
	if Rows(units.Bytes(bytesPerRowTest())) != 1 {
		t.Error("Rows arithmetic")
	}
}

func bytesPerRowTest() int64 { return matrixBytesPerRow }

func TestModelInfo(t *testing.T) {
	info := Model{}.Info()
	if info.Name != "MiniFE" || info.MaxScale != units.GB(30) ||
		info.Pattern != workload.PatternSequential {
		t.Errorf("Table I row wrong: %+v", info)
	}
	if len(Model{}.PaperSizes()) != 7 {
		t.Error("Fig. 4b has 7 sizes")
	}
}

// Validate checks CSR structural invariants: monotone row pointers,
// in-range sorted column indices.
func (m *CSR) Validate() error {
	if m.N < 0 || len(m.RowPtr) != m.N+1 {
		return fmt.Errorf("minife: rowptr length %d for %d rows", len(m.RowPtr), m.N)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("minife: rowptr[0] = %d", m.RowPtr[0])
	}
	for i := 0; i < m.N; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("minife: rowptr not monotone at row %d", i)
		}
		prev := int32(-1)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			if c < 0 || int(c) >= m.N {
				return fmt.Errorf("minife: column %d out of range at row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("minife: columns not strictly increasing at row %d", i)
			}
			prev = c
		}
	}
	if int64(len(m.ColIdx)) != m.NNZ() || int64(len(m.Values)) != m.NNZ() {
		return fmt.Errorf("minife: nnz arrays %d/%d vs rowptr %d", len(m.ColIdx), len(m.Values), m.NNZ())
	}
	return nil
}
