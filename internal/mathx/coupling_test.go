package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// tanhSumsRef is TanhSums' coupling-sum oracle: per-term math.Tanh over
// each row in CSR order, starting from the row's first term (rows without
// partners sum to +0).
func tanhSumsRef(rowPtr, cols []int32, y []float64) []float64 {
	out := make([]float64, len(rowPtr)-1)
	for i := range out {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if v := math.Tanh(y[cols[k]] - y[i]); k == rowPtr[i] {
				out[i] = v
			} else {
				out[i] += v
			}
		}
	}
	return out
}

// desyncSumsRef is DesyncSums' coupling-sum oracle: per-term
// −math.Sin(a(Δ)) over each row in CSR order, a(Δ) = w·Δ inside the
// horizon σ and ∓π/2 beyond it (+π/2 for NaN), starting from the row's
// first term (rows without partners sum to +0).
func desyncSumsRef(rowPtr, cols []int32, y []float64, w, sigma float64) []float64 {
	out := make([]float64, len(rowPtr)-1)
	for i := range out {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			d := y[cols[k]] - y[i]
			a := math.Pi / 2
			switch {
			case math.Abs(d) < sigma:
				a = w * d
			case d > 0:
				a = -math.Pi / 2
			}
			if v := math.Sin(a); k == rowPtr[i] {
				out[i] = -v
			} else {
				out[i] -= v
			}
		}
	}
	return out
}

// rateKs are the couplings every rate check runs: zero (k·c_i is ±0 or
// NaN), ordinary values of both signs, and one so large that k·c_i
// swamps freq[i] (and is ±Inf on an infinite sum).
var rateKs = []float64{0, 0.3, -1.7, 1e300}

// rateFreqs draws a frequency row of n entries: ordinary values of both
// signs, 2π, ±0, and an occasional huge one.
func rateFreqs(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		switch r := rng.Intn(10); {
		case r == 0:
			f[i] = 0
		case r == 1:
			f[i] = math.Copysign(0, -1)
		case r == 2:
			f[i] = 2 * math.Pi
		case r == 3:
			f[i] = 1e300 * (rng.Float64() - 0.5)
		default:
			f[i] = 20 * (rng.Float64() - 0.5)
		}
	}
	return f
}

// checkRates runs rates (TanhSums or DesyncSums) over every [lo, hi) of
// the table (or only [0, n) and 3-row chunks when n is large), for every
// k of rateKs and a fresh random frequency row each, and compares the
// rows bitwise, any NaN matching any NaN, against freq[i] + k·sums[i]
// from the per-term oracle sums. dst starts from a sentinel, so a row
// written outside [lo, hi), or not written inside it, shows.
func checkRates(t *testing.T, name string, sums []float64, rates func(dst, freq []float64, k float64, lo, hi int)) {
	t.Helper()
	n := len(sums)
	rng := rand.New(rand.NewSource(int64(n)))
	got := make([]float64, n)
	for _, k := range rateKs {
		freq := rateFreqs(rng, n)
		check := func(lo, hi int) {
			t.Helper()
			for i := range got {
				got[i] = -7
			}
			rates(got, freq, k, lo, hi)
			for i := range got {
				w := freq[i] + float64(k*sums[i])
				if i < lo || i >= hi {
					w = -7
				}
				if !sameFloat(got[i], w) {
					t.Fatalf("%s k=%v [%d, %d): row %d = %v, want %v (freq %v, sum %v)",
						name, k, lo, hi, i, got[i], w, freq[i], sums[i])
				}
			}
		}
		if n <= 40 {
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					check(lo, hi)
				}
			}
			continue
		}
		check(0, n)
		for lo := 0; lo < n; lo += 3 {
			check(lo, min(lo+3, n))
		}
	}
}

// checkTanhSums checks TanhSums on one CSR structure against
// tanhSumsRef.
func checkTanhSums(t *testing.T, name string, rowPtr, cols []int32, y []float64) {
	t.Helper()
	tab := NewCouplingTable(rowPtr, cols)
	checkRates(t, name, tanhSumsRef(rowPtr, cols, y), func(dst, freq []float64, k float64, lo, hi int) {
		tab.TanhSums(dst, y, freq, k, lo, hi)
	})
}

// checkDesyncSums checks DesyncSums on one CSR structure against
// desyncSumsRef at w = 3π/(2σ).
func checkDesyncSums(t *testing.T, name string, rowPtr, cols []int32, y []float64, sigma float64) {
	t.Helper()
	tab := NewCouplingTable(rowPtr, cols)
	w := 3 * math.Pi / (2 * sigma)
	checkRates(t, name, desyncSumsRef(rowPtr, cols, y, w, sigma), func(dst, freq []float64, k float64, lo, hi int) {
		tab.DesyncSums(dst, y, freq, k, lo, hi, w, sigma)
	})
}

// tanhEdges are the Δ at which math.Tanh changes branch, 1 ulp either
// side, and the special values; against a row phase of +0 each is its own
// Δ. −0 − (+0) is −0.
var tanhEdges = []float64{
	0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
	-0.625, math.Nextafter(-0.625, 0), math.Nextafter(-0.625, -1),
	tanhSaturate, math.Nextafter(tanhSaturate, 0), math.Nextafter(tanhSaturate, 100),
	-tanhSaturate, math.Nextafter(-tanhSaturate, 0), math.Nextafter(-tanhSaturate, -100),
	0, math.Copysign(0, -1), 5e-324, -1e-310, 1e-9, 0.3, -0.61, 3, -17, 1e300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// tanhPhases draws n phases: mostly small, so most Δ take the rational
// branch, with exact zeros, a few mid-range and huge values, the branch
// edges of tanhEdges, and ±Inf and NaN.
func tanhPhases(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		switch r := rng.Intn(20); {
		case r < 3:
			y[i] = 0
		case r < 4:
			y[i] = tanhEdges[rng.Intn(len(tanhEdges))]
		case r < 5:
			y[i] = 4 * (rng.Float64() - 0.5)
		default:
			y[i] = 0.6 * (rng.Float64() - 0.5)
		}
	}
	return y
}

// randomCouplingCSR has rows of degree 0…maxDeg with random partners,
// duplicates and self-loops included.
func randomCouplingCSR(rng *rand.Rand, rows, maxDeg int) (rowPtr, cols []int32) {
	rowPtr = make([]int32, rows+1)
	for i := 0; i < rows; i++ {
		for range rng.Intn(maxDeg + 1) {
			cols = append(cols, int32(rng.Intn(rows)))
		}
		rowPtr[i+1] = int32(len(cols))
	}
	return rowPtr, cols
}

// TestCouplingTableTanhSums pins the fused tanh pass bitwise to
// freq[i] + k·(per-term math.Tanh sum), for every k of rateKs on random
// frequency rows: every branch edge ±1 ulp, ±0 (a row whose only term is
// −0 sums to −0), ±Inf and NaN; blocks that mix mid-range lanes with
// rational ones, and mid-range rows on either side of every [lo, hi)
// edge of a 30-row ring, so the math.Tanh fallback finishes blocks at
// chunk edges; an empty 8-row block (freq + k·(+0)); random graphs at
// 5, 7, 30 and 97 rows, with rows of degree 0.
func TestCouplingTableTanhSums(t *testing.T) {
	if NewCouplingTable([]int32{0}, nil) == nil {
		t.Skip("no fused coupling kernel on this CPU")
	}
	// One row per edge value: row 0 (phase +0) lists partner k+1, whose
	// phase is tanhEdges[k]; rows 1… list row 0 and, for even k, row
	// k+2 as well. So Δ takes each edge value on its own and against 0,
	// eight rows to a block.
	m := len(tanhEdges) + 1
	y := append([]float64{0}, tanhEdges...)
	edges := struct{ rowPtr, cols []int32 }{rowPtr: []int32{0}}
	for k := range tanhEdges {
		edges.cols = append(edges.cols, int32(k+1))
	}
	edges.rowPtr = append(edges.rowPtr, int32(len(edges.cols)))
	for i := 1; i < m; i++ {
		edges.cols = append(edges.cols, 0)
		if i%2 == 1 && i+1 < m {
			edges.cols = append(edges.cols, int32(i+1))
		}
		edges.rowPtr = append(edges.rowPtr, int32(len(edges.cols)))
	}
	checkTanhSums(t, "edges", edges.rowPtr, edges.cols, y)
	// Each edge value as the only term of row 1.
	for _, d := range tanhEdges {
		checkTanhSums(t, "single", []int32{0, 0, 1}, []int32{0}, []float64{d, 0})
	}

	// A 30-row ring (i−1, i+1) at small phases with mid-range spikes at
	// rows 9 and 23: rows 8–10 and 22–24 meet a mid-range Δ, so blocks
	// 1 and 2 stop the kernel and blocks 0 and 3 do not.
	ringPtr, ringCols := make([]int32, 31), make([]int32, 60)
	yr := make([]float64, 30)
	for i := range yr {
		ringPtr[i+1] = int32(2 * (i + 1))
		ringCols[2*i], ringCols[2*i+1] = int32((i+29)%30), int32((i+1)%30)
		yr[i] = 0.05 * math.Sin(0.91*float64(i)+0.3)
	}
	yr[9], yr[23] = 0.9, -2.5
	checkTanhSums(t, "ring-spikes", ringPtr, ringCols, yr)

	// Rows 8–15 form a whole block without partners; row 16 meets a
	// mid-range Δ.
	emptyPtr := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9}
	emptyCols := []int32{1, 2, 3, 4, 5, 6, 7, 0, 0}
	ye := []float64{0.1, 0.2, -0.1, 0, math.Copysign(0, -1), 0.3, 0.05, -0.2,
		9, 9, 9, 9, 9, 9, 9, 9, 1.5}
	checkTanhSums(t, "empty-block", emptyPtr, emptyCols, ye)

	rng := rand.New(rand.NewSource(19))
	for _, rows := range []int{5, 7, 30, 97} {
		for range 20 {
			rowPtr, cols := randomCouplingCSR(rng, rows, 12)
			checkTanhSums(t, "random", rowPtr, cols, tanhPhases(rng, rows))
		}
	}
}

// TestCouplingTableDesyncSums pins the fused Desync pass bitwise to
// freq[i] + k·(per-term −math.Sin sum), for every k of rateKs on random
// frequency rows: Δ at exactly ±σ and 1 ulp inside, ±0, ±Inf and NaN;
// an empty 8-row block (freq + k·(+0)); random graphs at 5, 7, 30 and
// 97 rows, with rows of degree 0, at two horizons.
func TestCouplingTableDesyncSums(t *testing.T) {
	if NewCouplingTable([]int32{0}, nil) == nil {
		t.Skip("no fused coupling kernel on this CPU")
	}
	const sigma = 0.513372617044002
	// Row 0 (phase +0) lists every other row, so its Δ run through the
	// corner phases; each of rows 1… lists row 0 alone, giving the
	// negated Δ one per row.
	corners := []float64{0, sigma, -sigma, math.Nextafter(sigma, 0), -math.Nextafter(sigma, 0),
		math.Copysign(0, -1), 1e-300, 2.5, -9, math.Inf(1), math.Inf(-1), math.NaN()}
	rowPtr, cols := []int32{0}, []int32(nil)
	for j := 1; j < len(corners); j++ {
		cols = append(cols, int32(j))
	}
	rowPtr = append(rowPtr, int32(len(cols)))
	for range corners[1:] {
		cols = append(cols, 0)
		rowPtr = append(rowPtr, int32(len(cols)))
	}
	checkDesyncSums(t, "corners", rowPtr, cols, corners, sigma)

	emptyPtr := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9}
	emptyCols := []int32{1, 2, 3, 4, 5, 6, 7, 0, 0}
	ye := []float64{0.1, 0.2, -0.1, 0, math.Copysign(0, -1), 0.3, 0.05, -0.2,
		9, 9, 9, 9, 9, 9, 9, 9, 1.5}
	checkDesyncSums(t, "empty-block", emptyPtr, emptyCols, ye, sigma)

	rng := rand.New(rand.NewSource(20))
	for _, rows := range []int{5, 7, 30, 97} {
		for range 10 {
			rowPtr, cols := randomCouplingCSR(rng, rows, 12)
			y := make([]float64, rows)
			for i := range y {
				y[i] = 1.5 * (rng.Float64() - 0.5)
			}
			checkDesyncSums(t, "random", rowPtr, cols, y, sigma)
			checkDesyncSums(t, "random", rowPtr, cols, y, 1.2)
		}
	}
}

// TestCouplingTableRejectsBadInput pins the checks in front of the
// kernels: a column outside [0, rows) at construction, and a short y,
// dst or freq or a bad row range in either pass.
func TestCouplingTableRejectsBadInput(t *testing.T) {
	rowPtr := []int32{0, 1, 2, 3}
	if NewCouplingTable(rowPtr, []int32{1, 2, 0}) == nil {
		t.Skip("no fused coupling kernel on this CPU")
	}
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", what)
			}
		}()
		f()
	}
	for _, bad := range []int32{-1, 3} {
		panics("bad column", func() { NewCouplingTable(rowPtr, []int32{1, bad, 0}) })
	}
	tab := NewCouplingTable(rowPtr, []int32{1, 2, 0})
	y, dst, freq := make([]float64, 3), make([]float64, 3), make([]float64, 3)
	sums := map[string]func(dst, y, freq []float64, lo, hi int){
		"tanh":   func(dst, y, freq []float64, lo, hi int) { tab.TanhSums(dst, y, freq, 0.5, lo, hi) },
		"desync": func(dst, y, freq []float64, lo, hi int) { tab.DesyncSums(dst, y, freq, 0.5, lo, hi, 1, 1) },
	}
	for name, f := range sums {
		panics(name+": short y", func() { f(dst, y[:2], freq, 0, 1) })
		panics(name+": short dst", func() { f(dst[:1], y, freq, 0, 2) })
		panics(name+": short freq", func() { f(dst, y, freq[:1], 0, 2) })
		panics(name+": hi past rows", func() { f(dst, y, freq, 0, 4) })
		panics(name+": lo > hi", func() { f(dst, y, freq, 2, 1) })
		panics(name+": negative lo", func() { f(dst, y, freq, -1, 1) })
	}
}
