package mathx

import (
	"math"
	"testing"
)

// sinPath is one of SinInto's kernels, selected through the CPU gates.
type sinPath struct {
	name       string
	use4, use8 bool
}

// sinPaths lists the paths this CPU can run: the 8-wide loop (with the
// 4-wide and scalar ones on its tail), the 4-wide loop, and the scalar
// loop alone.
func sinPaths() []sinPath {
	var ps []sinPath
	if useSin8 {
		ps = append(ps, sinPath{"avx512", useSin4, true})
	}
	if useSin4 {
		ps = append(ps, sinPath{"avx2", true, false})
	}
	return append(ps, sinPath{"scalar", false, false})
}

// set selects the path until the returned restore function runs.
func (p sinPath) set() (restore func()) {
	old4, old8 := useSin4, useSin8
	useSin4, useSin8 = p.use4, p.use8
	return func() { useSin4, useSin8 = old4, old8 }
}

// TestSinIntoMatchesMathSin asserts bitwise agreement with math.Sin on
// every path over dense sweeps of the ranges the oscillator model
// produces (phase differences within a few hundred radians), the
// subnormal-prone band 1e-320…1e-70, both sides of the 2⁻²⁷ shortcut
// boundary, the reduction corners, and the special cases. The corners run
// behind 0…7 zeros, so each one lands in every vector lane.
func TestSinIntoMatchesMathSin(t *testing.T) {
	var xs []float64
	for x := -700.0; x <= 700.0; x += 0.0137 {
		xs = append(xs, x)
	}
	for e := -320; e <= -70; e++ {
		for _, m := range []float64{1, 2.5, 7.3} {
			v := m * math.Pow(10, float64(e))
			xs = append(xs, v, -v)
		}
	}
	tiny := 0x1p-27
	corners := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324,
		tiny, -tiny, math.Nextafter(tiny, 0), -math.Nextafter(tiny, 0),
		math.Nextafter(tiny, 1), -math.Nextafter(tiny, 1),
		math.Pi / 4, -math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi,
		1 << 28, 1<<29 - 1, 1 << 29, 1 << 30, 1e12, -1e12,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, p := range sinPaths() {
		t.Run(p.name, func(t *testing.T) {
			defer p.set()()
			check := func(xs []float64) {
				got := make([]float64, len(xs))
				SinInto(got, xs)
				for i, x := range xs {
					want := math.Sin(x)
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("SinInto(%g) = %v (bits %#x), math.Sin = %v (bits %#x)",
							x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
			check(xs)
			for off := range 8 {
				check(append(make([]float64, off), corners...))
			}
		})
	}
}

// TestSinIntoAliasing asserts in-place evaluation is supported, including
// the tricky case where out-of-fast-range elements (|x| ≥ 2²⁹, NaN, Inf)
// sit inside vector lane groups: the kernel must not clobber the aliased
// input before the math.Sin patch pass re-reads it.
func TestSinIntoAliasing(t *testing.T) {
	cases := [][]float64{
		{-2, -1, 0, 1, 2},
		{0.1, 1 << 30, 0.2, 0.3, 0.4, -5e12, 0.5, 0.6}, // huge args in lane groups
		{math.NaN(), 1 << 29, math.Inf(1), -0.7, 0.8, math.Inf(-1), 1e300, -1e300},
	}
	for _, p := range sinPaths() {
		t.Run(p.name, func(t *testing.T) {
			defer p.set()()
			for _, src := range cases {
				want := make([]float64, len(src))
				for i, v := range src {
					want[i] = math.Sin(v)
				}
				buf := append([]float64(nil), src...)
				SinInto(buf, buf)
				for i := range buf {
					if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
						t.Fatalf("in-place SinInto(%g) = %v, math.Sin = %v", src[i], buf[i], want[i])
					}
				}
			}
		})
	}
}

// BenchmarkSinInto runs every path on phase-like arguments and on the
// band 1e-155…1e-78, where the polynomial's terms would go subnormal
// without the 2⁻²⁷ shortcut.
func BenchmarkSinInto(b *testing.B) {
	phases := make([]float64, 2048)
	band := make([]float64, 2048)
	for i := range phases {
		phases[i] = 0.37 * float64(i%157)
		band[i] = math.Pow(10, -155+float64(i%78))
	}
	dst := make([]float64, len(phases))
	for _, p := range sinPaths() {
		for _, in := range []struct {
			name string
			xs   []float64
		}{{"phases", phases}, {"subnormal-band", band}} {
			b.Run(p.name+"/"+in.name, func(b *testing.B) {
				defer p.set()()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					SinInto(dst, in.xs)
				}
			})
		}
	}
}

func BenchmarkMathSinLoop(b *testing.B) {
	xs := make([]float64, 2048)
	for i := range xs {
		xs[i] = 0.37 * float64(i%157)
	}
	dst := make([]float64, len(xs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, x := range xs {
			dst[j] = math.Sin(x)
		}
	}
}
