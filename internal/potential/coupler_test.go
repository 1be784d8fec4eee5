package potential

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// csr is a hand-assembled neighbor structure for the coupler tests.
type csr struct {
	name         string
	rowPtr, cols []int32
}

// ringCSR is the periodic two-partner stencil: row i lists i−1 then i+1.
func ringCSR(m int) csr {
	c := csr{name: "ring", rowPtr: make([]int32, m+1), cols: make([]int32, 2*m)}
	for i := 0; i < m; i++ {
		c.rowPtr[i+1] = int32(2 * (i + 1))
		c.cols[2*i] = int32((i + m - 1) % m)
		c.cols[2*i+1] = int32((i + 1) % m)
	}
	return c
}

// mirrorCSR is the Neumann mirror stencil: rows 0 and m−1 list their one
// interior partner twice.
func mirrorCSR(m int) csr {
	c := ringCSR(m)
	c.name = "neumann"
	c.cols[0], c.cols[1] = 1, 1
	c.cols[2*m-2], c.cols[2*m-1] = int32(m-2), int32(m-2)
	return c
}

func flatCSR(t *testing.T, name string, tp *topology.Topology, err error) csr {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	f := tp.Flat()
	return csr{name: name, rowPtr: f.RowPtr, cols: f.Cols}
}

// scalarSums is the oracle: Σ V.Eval in CSR order, starting from each
// row's first term.
func scalarSums(p Potential, c csr, y []float64) []float64 {
	out := make([]float64, len(c.rowPtr)-1)
	for i := range out {
		for p0, k := c.rowPtr[i], c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			v := p.Eval(y[c.cols[k]] - y[i])
			if k == p0 {
				out[i] = v
			} else {
				out[i] += v
			}
		}
	}
	return out
}

// TestCouplerMatchesScalar pins the shared kernel bitwise to per-pair
// Eval sums over every built-in potential, the fused Desync pass, the
// generic fallback, and the structural corner cases: duplicate columns,
// radius-2 torus rows, rows without partners, and Δ at exactly ±σ, 0
// and −0.
func TestCouplerMatchesScalar(t *testing.T) {
	const sigma = 0.513372617044002
	pots := []Potential{
		Tanh{},
		NewDesync(sigma),
		NewDesync(1.2),
		KuramotoSine{},
		Linear{},
		Clipped{Inner: NewDesync(sigma), Limit: 0.6},
		Func{F: math.Atan, ID: "atan"},
	}
	tp, err := topology.Torus2DRadius(6, 5, 2)
	structs := []csr{ringCSR(7), mirrorCSR(7), flatCSR(t, "torus-r2", tp, err)}
	// Corner rows: row 0 sees Δ = σ, −σ, −0, −0 (y[3] = −0) and +0 (its
	// own phase); row 1 has no partners; row 4 sits just inside the
	// horizon on both sides.
	structs = append(structs, csr{
		name:   "corners",
		rowPtr: []int32{0, 5, 5, 6, 8, 10},
		cols:   []int32{1, 2, 3, 3, 0, 0, 4, 0, 1, 2},
	})
	for _, c := range structs {
		n := len(c.rowPtr) - 1
		ys := [][]float64{make([]float64, n), make([]float64, n)}
		for i := range ys[1] {
			ys[1][i] = 1.7 * math.Sin(0.91*float64(i)+0.3)
		}
		if c.name == "corners" {
			ys[0] = []float64{0, sigma, -sigma, math.Copysign(0, -1), math.Nextafter(sigma, 0)}
		}
		for _, p := range pots {
			for _, y := range ys {
				want := scalarSums(p, c, y)
				cp := NewCoupler(p, c.rowPtr, c.cols)
				got := make([]float64, n)
				cp.SumRange(got, y, 0, n)
				// Row chunks evaluated separately must agree too.
				chunked := make([]float64, n)
				for lo := 0; lo < n; lo += 3 {
					cp.SumRange(chunked, y, lo, min(lo+3, n))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%s: row %d = %v, scalar %v", c.name, p.Name(), i, got[i], want[i])
					}
					if math.Float64bits(chunked[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%s: chunked row %d = %v, scalar %v", c.name, p.Name(), i, chunked[i], want[i])
					}
				}
			}
		}
	}
}

// TestCouplerZeroAllocs pins the kernel's steady state to zero
// allocations on both the fused and the batched path.
func TestCouplerZeroAllocs(t *testing.T) {
	c := ringCSR(64)
	y := make([]float64, 64)
	dst := make([]float64, 64)
	for _, p := range []Potential{NewDesync(1.2), Tanh{}} {
		cp := NewCoupler(p, c.rowPtr, c.cols)
		if a := testing.AllocsPerRun(50, func() { cp.SumRange(dst, y, 0, 64) }); a != 0 {
			t.Fatalf("%s: SumRange allocates %v objects per call, want 0", p.Name(), a)
		}
	}
}

// benchCases are the two shapes the kernel benchmarks run: the continuum
// example's desync ring and the torus2d example's radius-1 halo.
func benchCases(b *testing.B) []struct {
	name string
	c    csr
} {
	tp, err := topology.Torus2DRadius(32, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := tp.Flat()
	return []struct {
		name string
		c    csr
	}{
		{"desync-ring-96", ringCSR(96)},
		{"desync-torus2d-32x32", csr{rowPtr: f.RowPtr, cols: f.Cols}},
	}
}

func benchPhases(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = 1.1 * math.Sin(0.37*float64(i))
	}
	return y
}

// BenchmarkCoupler measures the shared kernel on the Desync potential.
func BenchmarkCoupler(b *testing.B) {
	p := NewDesync(1.2)
	for _, bc := range benchCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			n := len(bc.c.rowPtr) - 1
			y, dst := benchPhases(n), make([]float64, n)
			cp := NewCoupler(p, bc.c.rowPtr, bc.c.cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp.SumRange(dst, y, 0, n)
			}
		})
	}
}

// BenchmarkCouplerScalar is BenchmarkCoupler's twin: the same sums as a
// per-pair loop through the Potential interface.
func BenchmarkCouplerScalar(b *testing.B) {
	var p Potential = NewDesync(1.2)
	for _, bc := range benchCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			n := len(bc.c.rowPtr) - 1
			y, dst := benchPhases(n), make([]float64, n)
			rowPtr, cols := bc.c.rowPtr, bc.c.cols
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for i := 0; i < n; i++ {
					var s float64
					for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
						s += p.Eval(y[cols[q]] - y[i])
					}
					dst[i] = s
				}
			}
		})
	}
}
