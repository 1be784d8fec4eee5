package potential

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Coupler evaluates the coupling sums of Eq. (2),
//
//	c_i = Σ_{p ∈ row i} V(y[Cols[p]] − y[i]),
//
// over a CSR neighbor structure (RowPtr, Cols) with one scratch slot per
// directed edge. It is the kernel every delay-free oscillator right-hand
// side runs through: the discrete model's topology rows and the continuum
// field's two-partner stencil alike. SumRange gathers the phase
// differences of a row block into the packed buffer, evaluates V over the
// block in one batched call, and reduces each row in CSR order — no
// per-pair interface dispatch and no steady-state allocations.
//
// For the Desync potential the gather writes the sine argument directly
// (w·Δ inside the horizon, ∓π/2 outside it) and the row sum subtracts the
// sine, so one pass precedes mathx.SinInto and one follows it. On CPUs
// with AVX-512 the whole Desync pass instead runs in registers, eight
// rows at a time, over a lane-transposed copy of the columns
// (mathx.DesyncTable); it gives the same bits.
//
// Each row's sum starts from its first term (rows without partners sum to
// 0). Chunks [lo, hi) touch disjoint buffer ranges, so SumRange may run
// concurrently on disjoint row ranges; a Coupler must not otherwise be
// shared between concurrent callers.
type Coupler struct {
	rowPtr, cols []int32
	rows         []int32 // rows[p] = owning row of edge p (gather loop)
	buf          []float64
	batch        Batch

	// Fused Desync pass: desync selects it, w = 3π/(2σ); lanes is its
	// AVX-512 executor, nil where the CPU has none.
	desync   bool
	w, sigma float64
	lanes    *mathx.DesyncTable
}

// fusedDesync lets tests run the portable Desync pass on AVX-512 CPUs.
var fusedDesync = true

// NewCoupler builds the kernel for potential p over the CSR arrays rowPtr
// (length rows+1, rowPtr[0] == 0) and cols (partner indices, length
// rowPtr[rows]). The arrays are retained and must not be modified. It
// panics on a column outside [0, rows).
func NewCoupler(p Potential, rowPtr, cols []int32) *Coupler {
	n := len(rowPtr) - 1
	for _, j := range cols {
		if j < 0 || int(j) >= n {
			panic(fmt.Sprintf("potential: coupler column %d outside [0, %d)", j, n))
		}
	}
	c := &Coupler{rowPtr: rowPtr, cols: cols, batch: BatchOf(p)}
	if d, ok := p.(Desync); ok {
		c.desync = true
		c.w = 3 * math.Pi / (2 * d.Sigma)
		c.sigma = d.Sigma
		if fusedDesync {
			c.lanes = mathx.NewDesyncTable(rowPtr, cols)
		}
	}
	if c.lanes == nil {
		c.rows = make([]int32, len(cols))
		c.buf = make([]float64, len(cols))
		for i := 0; i < n; i++ {
			for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
				c.rows[q] = int32(i)
			}
		}
	}
	return c
}

// SumRange writes the coupling sum c_i of every row i in [lo, hi) into
// dst[i], reading phases from y. It panics unless 0 ≤ lo ≤ hi ≤ rows,
// len(y) ≥ rows and len(dst) ≥ hi.
//
//pomvet:allocfree
func (c *Coupler) SumRange(dst, y []float64, lo, hi int) {
	if n := len(c.rowPtr) - 1; lo < 0 || lo > hi || hi > n || len(y) < n || len(dst) < hi {
		panic("potential: SumRange range out of bounds")
	}
	if c.lanes != nil {
		c.lanes.Sums(dst, y, lo, hi, c.w, c.sigma)
		return
	}
	b0, b1 := c.rowPtr[lo], c.rowPtr[hi]
	buf, cols, rows := c.buf[b0:b1], c.cols[b0:b1], c.rows[b0:b1]
	if c.desync {
		w, sigma := c.w, c.sigma
		for p, j := range cols {
			buf[p] = desyncArg(y[j]-y[rows[p]], w, sigma)
		}
		mathx.SinInto(buf, buf)
	} else {
		for p, j := range cols {
			buf[p] = y[j] - y[rows[p]]
		}
		c.batch.EvalInto(buf, buf)
	}
	// Reduce row by row in CSR order; p walks buf once. For Desync the
	// buffer holds sines, and s -= v is exactly s + V with V = −v.
	rowPtr := c.rowPtr[lo : hi+1]
	p := 0
	for i := lo; i < hi; i++ {
		end := int(rowPtr[i-lo+1] - b0)
		if p == end {
			dst[i] = 0
			continue
		}
		if c.desync {
			s := -buf[p]
			for p++; p < end; p++ {
				s -= buf[p]
			}
			dst[i] = s
			continue
		}
		s := buf[p]
		for p++; p < end; p++ {
			s += buf[p]
		}
		dst[i] = s
	}
}
