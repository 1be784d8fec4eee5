package mathx

// DesyncTable is a CSR neighbor structure transposed for the fused
// AVX-512 Desync coupling kernel. Rows are grouped in blocks of eight
// consecutive rows, one vector lane per row; step k of a block lists the
// k-th partner column of each of its rows, or −1 past that row's degree
// (the kernel masks those lanes). Each block is padded to its own maximum
// degree, so a block costs as many steps as its busiest row.
type DesyncTable struct {
	rows     int
	blockPtr []int32 // block b owns steps blockPtr[b] … blockPtr[b+1]−1
	lanes    []int32 // eight columns per step
}

// NewDesyncTable transposes the CSR arrays rowPtr (length rows+1) and
// cols. It returns nil when the CPU has no AVX-512 kernel, and panics on
// a column outside [0, rows): the kernel reads y[col] unchecked.
func NewDesyncTable(rowPtr, cols []int32) *DesyncTable {
	if !useSin8 {
		return nil
	}
	rows := len(rowPtr) - 1
	nb := (rows + 7) / 8
	t := &DesyncTable{rows: rows, blockPtr: make([]int32, nb+1)}
	for b := 0; b < nb; b++ {
		var deg int32
		for i := 8 * b; i < min(8*b+8, rows); i++ {
			deg = max(deg, rowPtr[i+1]-rowPtr[i])
		}
		t.blockPtr[b+1] = t.blockPtr[b] + deg
	}
	t.lanes = make([]int32, 8*int(t.blockPtr[nb]))
	for p := range t.lanes {
		t.lanes[p] = -1
	}
	for i := 0; i < rows; i++ {
		base := 8*int(t.blockPtr[i/8]) + i%8
		for k, j := range cols[rowPtr[i]:rowPtr[i+1]] {
			if j < 0 || int(j) >= rows {
				panic("mathx: DesyncTable column out of range")
			}
			t.lanes[base+8*k] = j
		}
	}
	return t
}

// Sums writes the Desync coupling sum of every row i in [lo, hi) into
// dst[i]:
//
//	dst[i] = −sin(a(y[c₀] − y[i])) − sin(a(y[c₁] − y[i])) − …
//
// over the row's partners c₀, c₁, … in CSR order, where a(Δ) = w·Δ for
// |Δ| < sigma, −π/2 for larger Δ > 0, and +π/2 otherwise (NaN included).
// Rows without partners get +0. With a finite w = 3π/(2σ) this is, bit
// for bit, the sum of potential.Desync's V over the row. Only dst[lo:hi]
// is written, so calls on disjoint row ranges may run concurrently. Sums
// panics unless 0 ≤ lo ≤ hi ≤ rows, len(y) ≥ rows and len(dst) ≥ hi.
//
//pomvet:allocfree
func (t *DesyncTable) Sums(dst, y []float64, lo, hi int, w, sigma float64) {
	if lo < 0 || lo > hi || hi > t.rows || len(y) < t.rows || len(dst) < hi {
		panic("mathx: DesyncTable.Sums range out of bounds")
	}
	if lo < hi {
		desyncSums8(dst, y, t.blockPtr, t.lanes, lo, hi, w, sigma)
	}
}
