package potential

import (
	"math"
	"math/rand"
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

// starCSR is a hub: row 0 lists every other row, each of which lists 0.
func starCSR(m int) csr {
	c := csr{name: "star", rowPtr: make([]int32, m+1)}
	for j := 1; j < m; j++ {
		c.cols = append(c.cols, int32(j))
	}
	c.rowPtr[1] = int32(m - 1)
	for i := 1; i < m; i++ {
		c.cols = append(c.cols, 0)
		c.rowPtr[i+1] = int32(len(c.cols))
	}
	return c
}

// randomCSR is an irregular graph: degrees 0…12 (so some rows are empty),
// random partners, duplicates and self-loops allowed.
func randomCSR(m int, seed int64) csr {
	rng := rand.New(rand.NewSource(seed))
	c := csr{name: "random", rowPtr: make([]int32, m+1)}
	for i := 0; i < m; i++ {
		for range rng.Intn(13) {
			c.cols = append(c.cols, int32(rng.Intn(m)))
		}
		c.rowPtr[i+1] = int32(len(c.cols))
	}
	return c
}

// couplerPaths lists the Desync passes this CPU can run: the fused
// AVX-512 one where available, and the portable one.
func couplerPaths() []bool {
	if NewCoupler(NewDesync(1), []int32{0, 0}, nil).lanes != nil {
		return []bool{true, false}
	}
	return []bool{false}
}

func pathName(fused bool) string {
	if fused {
		return "fused"
	}
	return "portable"
}

// setFused selects the Desync pass until the returned function runs.
func setFused(fused bool) (restore func()) {
	old := fusedDesync
	fusedDesync = fused
	return func() { fusedDesync = old }
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
// Eval sums over every built-in potential, on each Desync pass (fused
// AVX-512 and portable), for the generic fallback, and for the
// structural corner cases: duplicate columns, radius-2 torus rows, row
// counts that fill no, some and many 8-row blocks (5, 7, 30, 97), a star
// hub, an irregular graph with empty rows, an empty 8-row block, row
// chunks that straddle blocks, and Δ at exactly ±σ, ±0, ±Inf and NaN.
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
	structs := []csr{
		ringCSR(5), ringCSR(7), mirrorCSR(7), flatCSR(t, "torus-r2", tp, err),
		starCSR(30), randomCSR(97, 1),
	}
	// Rows 8–15 form a whole block without partners.
	structs = append(structs, csr{
		name:   "empty-block",
		rowPtr: []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9},
		cols:   []int32{1, 2, 3, 4, 5, 6, 7, 0, 0},
	})
	// Corner rows (phases below): row 0 sees Δ = σ, −σ, −0, −0, +0 (its
	// own phase), +Inf, −Inf and NaN; row 1 has no partners; row 4 sits
	// just inside the horizon on both sides; rows 5–7 hold ±Inf and NaN.
	structs = append(structs, csr{
		name:   "corners",
		rowPtr: []int32{0, 8, 8, 9, 11, 13, 16, 18, 19},
		cols:   []int32{1, 2, 3, 3, 0, 5, 6, 7, 0, 0, 4, 1, 2, 0, 5, 6, 0, 7, 1},
	})
	for _, fused := range couplerPaths() {
		t.Run(pathName(fused), func(t *testing.T) {
			defer setFused(fused)()
			for _, c := range structs {
				n := len(c.rowPtr) - 1
				ys := [][]float64{make([]float64, n), make([]float64, n)}
				for i := range ys[1] {
					ys[1][i] = 1.7 * math.Sin(0.91*float64(i)+0.3)
				}
				if c.name == "corners" {
					ys[0] = []float64{0, sigma, -sigma, math.Copysign(0, -1), math.Nextafter(sigma, 0),
						math.Inf(1), math.Inf(-1), math.NaN()}
				}
				for _, p := range pots {
					for _, y := range ys {
						checkCoupler(t, c, p, y)
					}
				}
			}
		})
	}
}

// checkCoupler compares one coupler against scalarSums: over all rows at
// once, in 3-row chunks, and over rows [3, 29), which straddles 8-row
// blocks and must leave every other dst element untouched. dst starts
// from a sentinel each time, so an unwritten row shows.
func checkCoupler(t *testing.T, c csr, p Potential, y []float64) {
	t.Helper()
	n := len(c.rowPtr) - 1
	want := scalarSums(p, c, y)
	cp := NewCoupler(p, c.rowPtr, c.cols)
	if _, ok := p.(Desync); ok && fusedDesync != (cp.lanes != nil) {
		t.Fatalf("%s/%s: fused pass %v, want %v", c.name, p.Name(), cp.lanes != nil, fusedDesync)
	}
	same := func(what string, got []float64, lo, hi int) {
		t.Helper()
		for i := range want {
			w := want[i]
			if i < lo || i >= hi {
				w = -7 // sentinel
			}
			// A NaN sum's payload depends on which operand the compiler
			// puts first, so any NaN matches a NaN.
			if math.Float64bits(got[i]) != math.Float64bits(w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
				t.Fatalf("%s/%s: %s row %d = %v, want %v", c.name, p.Name(), what, i, got[i], w)
			}
		}
	}
	got := make([]float64, n)
	fill := func() {
		for i := range got {
			got[i] = -7
		}
	}
	fill()
	cp.SumRange(got, y, 0, n)
	same("whole", got, 0, n)
	fill()
	for lo := 0; lo < n; lo += 3 {
		cp.SumRange(got, y, lo, min(lo+3, n))
	}
	same("chunked", got, 0, n)
	fill()
	lo, hi := min(3, n), min(29, n)
	cp.SumRange(got, y, lo, hi)
	same("straddling", got, lo, hi)
}

// TestCouplerRejectsBadInput pins the bounds checks that stand in for Go
// indexing in front of the fused kernel: a column outside [0, rows) is
// refused at construction, and SumRange refuses short y or dst slices
// and bad row ranges, on every Desync pass and for a batched potential.
func TestCouplerRejectsBadInput(t *testing.T) {
	c := ringCSR(9)
	for _, fused := range couplerPaths() {
		t.Run(pathName(fused), func(t *testing.T) {
			defer setFused(fused)()
			for _, p := range []Potential{NewDesync(1.2), Tanh{}} {
				for _, bad := range []int32{-1, 9, math.MaxInt32} {
					cols := append([]int32(nil), c.cols...)
					cols[5] = bad
					mustPanic(t, p.Name()+": bad column", func() { NewCoupler(p, c.rowPtr, cols) })
				}
				cp := NewCoupler(p, c.rowPtr, c.cols)
				y, dst := make([]float64, 9), make([]float64, 9)
				mustPanic(t, p.Name()+": short y", func() { cp.SumRange(dst, y[:8], 0, 1) })
				mustPanic(t, p.Name()+": short dst", func() { cp.SumRange(dst[:4], y, 0, 5) })
				mustPanic(t, p.Name()+": hi past rows", func() { cp.SumRange(dst, y, 0, 10) })
				mustPanic(t, p.Name()+": lo > hi", func() { cp.SumRange(dst, y, 5, 4) })
				mustPanic(t, p.Name()+": negative lo", func() { cp.SumRange(dst, y, -1, 4) })
			}
		})
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
}

// TestCouplerZeroAllocs pins the kernel's steady state to zero
// allocations on the fused, the portable Desync and the batched path.
func TestCouplerZeroAllocs(t *testing.T) {
	c := ringCSR(64)
	y := make([]float64, 64)
	dst := make([]float64, 64)
	for _, fused := range couplerPaths() {
		t.Run(pathName(fused), func(t *testing.T) {
			defer setFused(fused)()
			for _, p := range []Potential{NewDesync(1.2), Tanh{}} {
				cp := NewCoupler(p, c.rowPtr, c.cols)
				if a := testing.AllocsPerRun(50, func() { cp.SumRange(dst, y, 0, 64) }); a != 0 {
					t.Fatalf("%s: SumRange allocates %v objects per call, want 0", p.Name(), a)
				}
			}
		})
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

// BenchmarkCoupler measures the shared kernel on the Desync potential,
// on each pass this CPU can run.
func BenchmarkCoupler(b *testing.B) {
	p := NewDesync(1.2)
	for _, fused := range couplerPaths() {
		for _, bc := range benchCases(b) {
			b.Run(pathName(fused)+"/"+bc.name, func(b *testing.B) {
				n := len(bc.c.rowPtr) - 1
				y, dst := benchPhases(n), make([]float64, n)
				restore := setFused(fused)
				cp := NewCoupler(p, bc.c.rowPtr, bc.c.cols)
				restore()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cp.SumRange(dst, y, 0, n)
				}
			})
		}
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
