// Package minife reimplements the MiniFE proxy application: assembly
// of a 27-point hexahedral finite-element operator on a 3D structured
// mesh into CSR format, and a Conjugate-Gradient solver over it (the
// paper: "the most performance critical part of the application solves
// the linear-system using a Conjugate-Gradient algorithm").
//
// The functional layer really assembles and really solves; the model
// layer regenerates Fig. 4b and Fig. 6b.
package minife

import (
	"fmt"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int64
	ColIdx []int32
	Values []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int64 {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return m.RowPtr[m.N]
}

// SpMV computes y = A*x.
func (m *CSR) SpMV(x, y []float64) error {
	if len(x) != m.N || len(y) != m.N {
		return fmt.Errorf("minife: spmv vector lengths %d/%d for n=%d", len(x), len(y), m.N)
	}
	for i := 0; i < m.N; i++ {
		sum := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Values[k] * x[m.ColIdx[k]]
		}
		y[i] = sum
	}
	return nil
}

// Assemble27Point builds the 27-point operator for an nx x ny x nz
// structured hexahedral mesh: each node couples to its 3x3x3
// neighbourhood. Off-diagonal entries are -1 and the diagonal equals
// the neighbour count, making the operator symmetric positive
// definite (diagonally dominant Laplacian-like), as MiniFE's is.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func Assemble27Point(nx, ny, nz int) (*CSR, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("minife: bad mesh %dx%dx%d", nx, ny, nz)
	}
	n := nx * ny * nz
	m := &CSR{N: n, RowPtr: make([]int64, n+1)}
	id := func(x, y, z int) int32 { return int32((z*ny+y)*nx + x) }

	// First pass: count row lengths.
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				count := 0
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							xx, yy, zz := x+dx, y+dy, z+dz
							if xx >= 0 && xx < nx && yy >= 0 && yy < ny && zz >= 0 && zz < nz {
								count++
							}
						}
					}
				}
				m.RowPtr[int(id(x, y, z))+1] = int64(count)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	nnz := m.RowPtr[n]
	m.ColIdx = make([]int32, nnz)
	m.Values = make([]float64, nnz)

	// Second pass: fill (neighbourhood loops emit sorted columns).
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				row := int(id(x, y, z))
				k := m.RowPtr[row]
				deg := float64(m.RowPtr[row+1]-m.RowPtr[row]) - 1
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							xx, yy, zz := x+dx, y+dy, z+dz
							if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
								continue
							}
							col := id(xx, yy, zz)
							m.ColIdx[k] = col
							if int(col) == row {
								m.Values[k] = deg + 1 // diagonal dominance
							} else {
								m.Values[k] = -1
							}
							k++
						}
					}
				}
			}
		}
	}
	return m, nil
}
