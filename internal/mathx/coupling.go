package mathx

import "math"

// CouplingTable is a CSR neighbor structure transposed for the fused
// AVX-512 coupling kernels, one table for both potentials that have one:
// Desync (DesyncSums) and tanh (TanhSums). Rows are grouped in blocks of
// eight consecutive rows, one vector lane per row; step k of a block
// lists the k-th partner column of each of its rows, or −1 past that
// row's degree (the kernels mask those lanes). Each block is padded to
// its own maximum degree, so a block costs as many steps as its busiest
// row.
type CouplingTable struct {
	rows     int
	blockPtr []int32 // block b owns steps blockPtr[b] … blockPtr[b+1]−1
	lanes    []int32 // eight columns per step
}

// NewCouplingTable transposes the CSR arrays rowPtr (length rows+1) and
// cols. It returns nil when the CPU has no AVX-512 kernel, and panics on
// a column outside [0, rows): the kernels read y[col] unchecked.
func NewCouplingTable(rowPtr, cols []int32) *CouplingTable {
	if !useSin8 {
		return nil
	}
	rows := len(rowPtr) - 1
	nb := (rows + 7) / 8
	t := &CouplingTable{rows: rows, blockPtr: make([]int32, nb+1)}
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
				panic("mathx: CouplingTable column out of range")
			}
			t.lanes[base+8*k] = j
		}
	}
	return t
}

// check panics unless 0 ≤ lo ≤ hi ≤ rows, len(y) ≥ rows and
// len(dst) ≥ hi.
func (t *CouplingTable) check(dst, y []float64, lo, hi int) {
	if lo < 0 || lo > hi || hi > t.rows || len(y) < t.rows || len(dst) < hi {
		panic("mathx: CouplingTable sums range out of bounds")
	}
}

// DesyncSums writes the Desync coupling sum of every row i in [lo, hi)
// into dst[i]:
//
//	dst[i] = −sin(a(y[c₀] − y[i])) − sin(a(y[c₁] − y[i])) − …
//
// over the row's partners c₀, c₁, … in CSR order, where a(Δ) = w·Δ for
// |Δ| < sigma, −π/2 for larger Δ > 0, and +π/2 otherwise (NaN included).
// Rows without partners get +0. With a finite w = 3π/(2σ) this is, bit
// for bit, the sum of potential.Desync's V over the row. Only dst[lo:hi]
// is written, so calls on disjoint row ranges may run concurrently.
// DesyncSums panics unless 0 ≤ lo ≤ hi ≤ rows, len(y) ≥ rows and
// len(dst) ≥ hi.
//
//pomvet:allocfree
func (t *CouplingTable) DesyncSums(dst, y []float64, lo, hi int, w, sigma float64) {
	t.check(dst, y, lo, hi)
	if lo < hi {
		desyncSums8(dst, y, t.blockPtr, t.lanes, lo, hi, w, sigma)
	}
}

// TanhSums writes the tanh coupling sum of every row i in [lo, hi) into
// dst[i]:
//
//	dst[i] = tanh(y[c₀] − y[i]) + tanh(y[c₁] − y[i]) + …
//
// over the row's partners in CSR order, bit for bit the per-term
// math.Tanh sum (rows without partners get +0). The kernel evaluates
// every term in registers except the mid-range 0.625 ≤ |Δ| ≤
// tanhSaturate, which needs Exp: a block of eight rows that meets one is
// summed here with math.Tanh instead. Only dst[lo:hi] is written, so
// calls on disjoint row ranges may run concurrently. TanhSums panics
// unless 0 ≤ lo ≤ hi ≤ rows, len(y) ≥ rows and len(dst) ≥ hi.
//
//pomvet:allocfree
func (t *CouplingTable) TanhSums(dst, y []float64, lo, hi int) {
	t.check(dst, y, lo, hi)
	for lo < hi {
		b := tanhSums8(dst, y, t.blockPtr, t.lanes, lo, hi)
		if b >= hi {
			return
		}
		end := min(b+8, hi)
		t.tanhRows(dst, y, max(b, lo), end)
		lo = end
	}
}

// tanhRows is TanhSums over rows [lo, hi) of one block with per-term
// math.Tanh, each row summed from its first term in CSR order.
func (t *CouplingTable) tanhRows(dst, y []float64, lo, hi int) {
	k0, k1 := int(t.blockPtr[lo/8]), int(t.blockPtr[lo/8+1])
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := k0; k < k1; k++ {
			j := t.lanes[8*k+i%8]
			if j < 0 {
				break
			}
			if v := math.Tanh(y[j] - y[i]); k == k0 {
				s = v
			} else {
				s += v
			}
		}
		dst[i] = s
	}
}
