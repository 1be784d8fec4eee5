package stats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx"
)

// orderReference is OrderParameter's former body, a math.Sincos loop:
// the oracle for its bits.
func orderReference(theta []float64) (r, psi float64) {
	n := len(theta)
	if n == 0 {
		return 0, 0
	}
	var sx, sy float64
	for _, th := range theta {
		s, c := math.Sincos(th)
		sy += s
		sx += c
	}
	sx /= float64(n)
	sy /= float64(n)
	return math.Hypot(sx, sy), math.Atan2(sy, sx)
}

// orderPhases returns n phases spread over several turns, with ±0, a
// tiny phase and an out-of-range one (|θ| ≥ 2²⁹, patched with
// math.Sincos) cycling in every 29th place.
func orderPhases(n int) []float64 {
	rng := NewRNG(uint64(n))
	theta := make([]float64, n)
	for i := range theta {
		theta[i] = rng.Uniform(-20, 20)
	}
	for i := 0; i < n; i += 29 {
		theta[i] = []float64{0, 1e-9, 1 << 30, math.Copysign(0, -1)}[i/29%4]
	}
	return theta
}

// TestOrderParameterMatchesReference pins r and ψ bitwise to the
// math.Sincos loop at sizes below, at and across the 64-phase chunk.
// (mathx.TestSincosIntoMatchesSincos pins every SincosInto path.)
func TestOrderParameterMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 130, 1000} {
		theta := orderPhases(n)
		r, psi := OrderParameter(theta)
		wr, wpsi := orderReference(theta)
		if math.Float64bits(r) != math.Float64bits(wr) || math.Float64bits(psi) != math.Float64bits(wpsi) {
			t.Errorf("N=%d: OrderParameter = (%v, %v), reference (%v, %v)", n, r, psi, wr, wpsi)
		}
	}
}

// TestOrderParameterAllocFree pins the stack-chunked evaluation at zero
// heap allocations.
func TestOrderParameterAllocFree(t *testing.T) {
	for _, n := range []int{64, 1000} {
		theta := orderPhases(n)
		if a := testing.AllocsPerRun(100, func() { OrderParameter(theta) }); a != 0 {
			t.Errorf("N=%d: OrderParameter allocates %v times per call", n, a)
		}
	}
}

// TestOrderRMatchesReference pins OrderR's r bitwise to the math.Sincos
// loop at the same sizes, and OrderRBlock's r of every row of blocks of
// one to nine such rows, with specials cycling through every row. The
// scratch is oversized and left dirty between calls.
func TestOrderRMatchesReference(t *testing.T) {
	sin, cos := make([]float64, 9*1001), make([]float64, 9*1001)
	for i := range sin {
		sin[i], cos[i] = math.NaN(), math.Inf(1)
	}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 130, 1000} {
		theta := orderPhases(n)
		wr, _ := orderReference(theta)
		if r := OrderR(theta, sin, cos); math.Float64bits(r) != math.Float64bits(wr) {
			t.Errorf("N=%d: OrderR = %v, reference %v", n, r, wr)
		}
		for m := 1; m <= 9; m++ {
			rows := make([]float64, 0, m*n)
			for j := 0; j < m; j++ {
				rows = append(rows, orderPhases(n + j)[j:j+n]...)
			}
			r := make([]float64, m)
			OrderRBlock(r, rows, sin, cos)
			for j := range r {
				wr, _ := orderReference(rows[j*n : (j+1)*n])
				if math.Float64bits(r[j]) != math.Float64bits(wr) {
					t.Errorf("N=%d block of %d: row %d r = %v, reference %v", n, m, j, r[j], wr)
				}
			}
		}
	}
	if r := OrderR(nil, nil, nil); r != 0 {
		t.Errorf("empty: OrderR = %v", r)
	}
	r := []float64{7, 7}
	if OrderRBlock(r, nil, nil, nil); r[0] != 0 || r[1] != 0 {
		t.Errorf("empty rows: OrderRBlock = %v", r)
	}
}

// TestOrderRAllocFree pins OrderR and OrderRBlock at zero heap
// allocations.
func TestOrderRAllocFree(t *testing.T) {
	for _, n := range []int{8, 1000} {
		theta := orderPhases(8 * n)
		sin, cos, r := make([]float64, 8*n), make([]float64, 8*n), make([]float64, 8)
		if a := testing.AllocsPerRun(100, func() { OrderR(theta[:n], sin, cos) }); a != 0 {
			t.Errorf("N=%d: OrderR allocates %v times per call", n, a)
		}
		if a := testing.AllocsPerRun(100, func() { OrderRBlock(r, theta, sin, cos) }); a != 0 {
			t.Errorf("N=%d: OrderRBlock allocates %v times per call", n, a)
		}
	}
}

// BenchmarkOrderParameter times one mean-field evaluation at the linstab
// example's N = 3, the Kuramoto example's N = 64 and at N = 1000.
func BenchmarkOrderParameter(b *testing.B) {
	for _, n := range []int{3, 64, 1000} {
		theta := make([]float64, n)
		for i := range theta {
			theta[i] = 0.37 * float64(i%157)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				OrderParameter(theta)
			}
		})
	}
}

func TestOrderParameterSync(t *testing.T) {
	theta := []float64{0.7, 0.7, 0.7, 0.7}
	r, psi := OrderParameter(theta)
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v, want 1 for identical phases", r)
	}
	if math.Abs(psi-0.7) > 1e-12 {
		t.Errorf("psi = %v, want 0.7", psi)
	}
}

func TestOrderParameterUniformSpread(t *testing.T) {
	// N phases uniformly around the circle: r must vanish.
	n := 16
	theta := make([]float64, n)
	for i := range theta {
		theta[i] = mathx.TwoPi * float64(i) / float64(n)
	}
	r, _ := OrderParameter(theta)
	if r > 1e-12 {
		t.Errorf("r = %v, want 0 for uniform spread", r)
	}
}

func TestOrderParameterEmpty(t *testing.T) {
	r, psi := OrderParameter(nil)
	if r != 0 || psi != 0 {
		t.Errorf("empty: r=%v psi=%v", r, psi)
	}
}

func TestOrderParameterAntipodal(t *testing.T) {
	r, _ := OrderParameter([]float64{0, math.Pi})
	if r > 1e-12 {
		t.Errorf("antipodal pair r = %v, want 0", r)
	}
}

func TestPhaseSpread(t *testing.T) {
	if got := PhaseSpread([]float64{1, 3, 2}); got != 2 {
		t.Errorf("PhaseSpread = %v", got)
	}
	if got := PhaseSpread(nil); got != 0 {
		t.Errorf("empty PhaseSpread = %v", got)
	}
	if got := PhaseSpread([]float64{5}); got != 0 {
		t.Errorf("single PhaseSpread = %v", got)
	}
}
