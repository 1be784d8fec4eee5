// Package linalg provides the small dense and sparse matrix types used for
// topology matrices and coupling computations in the oscillator model.
// Only stdlib is used; the row-major dense layout and CSR sparse layout
// follow the usual HPC conventions.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape reports incompatible matrix/vector dimensions.
var ErrShape = errors.New("linalg: incompatible shapes")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r×c zero matrix. It panics for non-positive sizes.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic("linalg: NewDense with non-positive dimensions")
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds a matrix from a slice of rows; all rows must have the
// same length.
func NewDenseFrom(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrShape
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: ragged row %d: %w", i, ErrShape)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// IsSymmetric reports whether the matrix equals its transpose to within
// tol. Non-square matrices are never symmetric.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Frobenius returns the Frobenius norm.
func (m *Dense) Frobenius() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders a small matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
