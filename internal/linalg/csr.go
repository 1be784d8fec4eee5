package linalg

import (
	"math"
	"sort"
)

// CSR is a compressed sparse row matrix. Topology matrices of parallel
// programs are extremely sparse (a handful of communication partners per
// rank), so the oscillator model's coupling sum is evaluated through this
// structure rather than a dense N×N matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	values     []float64
}

// coo is one coordinate-format triplet used during assembly.
type coo struct {
	i, j int
	v    float64
}

// Builder accumulates triplets and assembles a CSR matrix. Duplicate
// entries are summed, matching the usual sparse-assembly convention.
type Builder struct {
	rows, cols int
	entries    []coo
}

// NewBuilder returns a builder for an r×c sparse matrix.
func NewBuilder(r, c int) *Builder {
	if r <= 0 || c <= 0 {
		panic("linalg: NewBuilder with non-positive dimensions")
	}
	return &Builder{rows: r, cols: c}
}

// Add accumulates v at (i, j). Out-of-range indices panic: topology
// construction bugs should fail loudly.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic("linalg: Builder.Add index out of range")
	}
	b.entries = append(b.entries, coo{i, j, v})
}

// Build assembles the CSR matrix, summing duplicates and dropping explicit
// zeros.
func (b *Builder) Build() *CSR {
	sort.SliceStable(b.entries, func(x, y int) bool {
		if b.entries[x].i != b.entries[y].i {
			return b.entries[x].i < b.entries[y].i
		}
		return b.entries[x].j < b.entries[y].j
	})
	m := &CSR{rows: b.rows, cols: b.cols, rowPtr: make([]int, b.rows+1)}
	for k := 0; k < len(b.entries); {
		e := b.entries[k]
		v := e.v
		k++
		for k < len(b.entries) && b.entries[k].i == e.i && b.entries[k].j == e.j {
			v += b.entries[k].v
			k++
		}
		if v == 0 {
			continue
		}
		m.colIdx = append(m.colIdx, e.j)
		m.values = append(m.values, v)
		m.rowPtr[e.i+1] = len(m.values)
	}
	// Fill gaps for empty rows.
	for i := 1; i <= b.rows; i++ {
		if m.rowPtr[i] < m.rowPtr[i-1] {
			m.rowPtr[i] = m.rowPtr[i-1]
		}
	}
	return m
}

// At returns element (i, j), zero when absent. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.colIdx[lo:hi], j)
	if lo+idx < hi && m.colIdx[lo+idx] == j {
		return m.values[lo+idx]
	}
	return 0
}

// Row iterates over the nonzeros of row i, calling fn(col, value).
func (m *CSR) Row(i int, fn func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.values[k])
	}
}

// RowNNZ returns the number of nonzeros in row i (the degree of
// oscillator i in a topology matrix).
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// IsSymmetric reports whether M equals Mᵀ within tol. Communication
// topologies with matched send/recv pairs are symmetric.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	sym := true
	for i := 0; i < m.rows && sym; i++ {
		m.Row(i, func(j int, v float64) {
			if math.Abs(v-m.At(j, i)) > tol {
				sym = false
			}
		})
	}
	return sym
}

// RowPtr returns the CSR row-offset array (length rows+1): the nonzeros
// of row i occupy positions RowPtr()[i] to RowPtr()[i+1] of ColIdx().
// The slice is shared with the matrix and must be treated as read-only.
func (m *CSR) RowPtr() []int { return m.rowPtr }

// ColIdx returns the packed column-index array of the nonzeros, row-major.
// The slice is shared with the matrix and must be treated as read-only.
func (m *CSR) ColIdx() []int { return m.colIdx }

// Neighbors returns, for every row, the column indices of its nonzeros.
// For a topology matrix this is each rank's communication partner list.
func (m *CSR) Neighbors() [][]int {
	out := make([][]int, m.rows)
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		out[i] = append([]int(nil), m.colIdx[lo:hi]...)
	}
	return out
}
