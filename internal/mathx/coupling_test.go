package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// tanhSumsRef is TanhSums' oracle: per-term math.Tanh over each row in
// CSR order, starting from the row's first term (rows without partners
// sum to +0).
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

// checkTanhSums runs TanhSums over every [lo, hi) of the table (or only
// [0, n) and 3-row chunks when n is large) and compares the rows against
// the oracle bitwise, any NaN matching any NaN; dst starts from a
// sentinel, so a row written outside [lo, hi), or not written inside it,
// shows.
func checkTanhSums(t *testing.T, name string, rowPtr, cols []int32, y []float64) {
	t.Helper()
	tab := NewCouplingTable(rowPtr, cols)
	want := tanhSumsRef(rowPtr, cols, y)
	n := len(want)
	got := make([]float64, n)
	check := func(lo, hi int) {
		t.Helper()
		for i := range got {
			got[i] = -7
		}
		tab.TanhSums(got, y, lo, hi)
		for i := range got {
			w := want[i]
			if i < lo || i >= hi {
				w = -7
			}
			if !sameFloat(got[i], w) {
				t.Fatalf("%s [%d, %d): row %d = %v, want %v", name, lo, hi, i, got[i], w)
			}
		}
	}
	if n <= 40 {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				check(lo, hi)
			}
		}
		return
	}
	check(0, n)
	for lo := 0; lo < n; lo += 3 {
		check(lo, min(lo+3, n))
	}
}

// TestCouplingTableTanhSums pins the fused tanh pass bitwise to per-term
// math.Tanh sums: every branch edge ±1 ulp, ±0 (a row whose only term is
// −0 sums to −0), ±Inf and NaN; blocks that mix mid-range lanes with
// rational ones, and mid-range rows on either side of every [lo, hi)
// edge of a 30-row ring; an empty 8-row block; random graphs at 5, 7,
// 30 and 97 rows.
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

// TestCouplingTableRejectsBadInput pins the checks in front of the
// kernels: a column outside [0, rows) at construction, and a short y or
// dst or a bad row range in either sum.
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
	y, dst := make([]float64, 3), make([]float64, 3)
	sums := map[string]func(dst, y []float64, lo, hi int){
		"tanh":   tab.TanhSums,
		"desync": func(dst, y []float64, lo, hi int) { tab.DesyncSums(dst, y, lo, hi, 1, 1) },
	}
	for name, f := range sums {
		panics(name+": short y", func() { f(dst, y[:2], 0, 1) })
		panics(name+": short dst", func() { f(dst[:1], y, 0, 2) })
		panics(name+": hi past rows", func() { f(dst, y, 0, 4) })
		panics(name+": lo > hi", func() { f(dst, y, 2, 1) })
		panics(name+": negative lo", func() { f(dst, y, -1, 1) })
	}
}
