package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// vec8Inputs returns count vectors of length n mixing ordinary values with
// ±0, subnormals, huge magnitudes, ±Inf and NaN.
func vec8Inputs(rng *rand.Rand, n, count int) [][]float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 1e300, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	vs := make([][]float64, count)
	for j := range vs {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			if rng.Intn(5) == 0 {
				vs[j][i] = specials[rng.Intn(len(specials))]
			} else {
				vs[j][i] = 4*rng.Float64() - 2
			}
		}
	}
	return vs
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestVec8MatchesScalar checks each 8-wide kernel against the Go
// expression its documentation spells out, for every tail length and
// LinComb8 term count, including a NaN |y| against a finite |ynew| in
// ErrSumSq8 (the case VMAXPD alone would get wrong).
func TestVec8MatchesScalar(t *testing.T) {
	if !HasAVX512() {
		t.Skip("no AVX-512 kernels on this CPU")
	}
	const h, atol, rtol = 0.37, 1e-6, 1e-3
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 100} {
		for m := 1; m <= 6; m++ {
			vs := vec8Inputs(rng, n, m+1)
			y, k := vs[0], vs[1:]
			c := vec8Inputs(rng, m, 1)[0]
			comb := func(i int) float64 {
				acc := c[0] * k[0][i]
				for j := 1; j < m; j++ {
					acc = acc + c[j]*k[j][i]
				}
				return h * acc
			}

			got := make([]float64, n+1)
			got[n] = 42 // past the end: must stay untouched
			LinComb8(got[:n], y, h, c, k...)
			for i := 0; i < n; i++ {
				if want := y[i] + comb(i); !sameFloat(got[i], want) {
					t.Fatalf("LinComb8 n=%d m=%d [%d] = %v, want %v", n, m, i, got[i], want)
				}
			}
			LinComb8(got[:n], nil, h, c, k...)
			for i := 0; i < n; i++ {
				if want := comb(i); !sameFloat(got[i], want) {
					t.Fatalf("LinComb8 (no y) n=%d m=%d [%d] = %v, want %v", n, m, i, got[i], want)
				}
			}
			if got[n] != 42 {
				t.Fatalf("LinComb8 n=%d wrote past the end", n)
			}
		}

		// ErrSumSq8 over finite stages and one NaN in y or ynew: the sum
		// stays finite until the NaN lane, which must poison it.
		var c [6]float64
		var k [6][]float64
		for j := range k {
			c[j] = 2*rng.Float64() - 1
			k[j] = make([]float64, n)
			for i := range k[j] {
				k[j][i] = 2*rng.Float64() - 1
			}
		}
		for _, nanIn := range []int{-1, 0, 1} {
			y, ynew := make([]float64, n), make([]float64, n)
			for i := range y {
				y[i], ynew[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
			}
			if n > 0 && nanIn == 0 {
				y[n-1] = math.NaN()
			} else if n > 0 && nanIn == 1 {
				ynew[n-1] = math.NaN()
			}
			var want float64
			for i := 0; i < n; i++ {
				acc := c[0] * k[0][i]
				for j := 1; j < 6; j++ {
					acc = acc + c[j]*k[j][i]
				}
				e := (h * acc) / (atol + rtol*math.Max(math.Abs(y[i]), math.Abs(ynew[i])))
				want += e * e
			}
			if got := ErrSumSq8(y, ynew, h, atol, rtol, &c, &k); !sameFloat(got, want) {
				t.Fatalf("ErrSumSq8 n=%d nan=%d = %v, want %v", n, nanIn, got, want)
			}
		}

		vs := vec8Inputs(rng, n, 9)
		y, ynew, k1, k7 := vs[0], vs[1], vs[2], vs[3]
		var rc [5][]float64
		for j := range rc {
			rc[j] = make([]float64, n)
		}
		DenseFill8(&rc, y, ynew, k1, k7, h)
		for i := 0; i < n; i++ {
			ydiff := ynew[i] - y[i]
			bspl := h*k1[i] - ydiff
			for j, want := range []float64{y[i], ydiff, bspl, ydiff - h*k7[i] - bspl} {
				if !sameFloat(rc[j][i], want) {
					t.Fatalf("DenseFill8 n=%d rc[%d][%d] = %v, want %v", n, j, i, rc[j][i], want)
				}
			}
		}
		copy(rc[:], vs[4:])
		th := 0.3
		th1 := 1 - th
		dst := make([]float64, n)
		Horner8(dst, &rc, th, th1)
		for i := 0; i < n; i++ {
			want := rc[0][i] + th*(rc[1][i]+th1*(rc[2][i]+th*(rc[3][i]+th1*rc[4][i])))
			if !sameFloat(dst[i], want) {
				t.Fatalf("Horner8 n=%d [%d] = %v, want %v", n, i, dst[i], want)
			}
		}
	}
}

// TestVec8RejectsBadInput checks the wrappers' guards: the assembly reads
// raw pointers, so short operands must panic instead of reading past
// them.
func TestVec8RejectsBadInput(t *testing.T) {
	if !HasAVX512() {
		t.Skip("no AVX-512 kernels on this CPU")
	}
	v4, v3 := make([]float64, 4), make([]float64, 3)
	var rc [5][]float64
	for j := range rc {
		rc[j] = v4
	}
	short := rc
	short[4] = v3
	for name, call := range map[string]func(){
		"LinComb8 short k":  func() { LinComb8(v4, nil, 1, []float64{1, 2}, v4, v3) },
		"LinComb8 short y":  func() { LinComb8(v4, v3, 1, []float64{1}, v4) },
		"LinComb8 no terms": func() { LinComb8(v4, v4, 1, nil) },
		"LinComb8 c/k":      func() { LinComb8(v4, v4, 1, []float64{1}, v4, v4) },
		"LinComb8 7 terms":  func() { LinComb8(v4, v4, 1, make([]float64, 7), v4, v4, v4, v4, v4, v4, v4) },
		"ErrSumSq8 short":   func() { ErrSumSq8(v4, v4, 1, 1, 1, &[6]float64{}, &[6][]float64{v4, v4, v4, v4, v4, v3}) },
		"DenseFill8 short":  func() { DenseFill8(&rc, v4, v4, v3, v4, 1) },
		"Horner8 short":     func() { Horner8(v4, &short, 0.5, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
