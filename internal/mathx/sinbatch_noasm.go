//go:build !amd64

package mathx

// Off amd64 there are no packed kernels: SinInto runs the scalar fast
// path, SincosInto a math.Sincos loop, NewCouplingTable returns nil and
// HasAVX512 reports false. The gates are variables so tests compile
// unchanged on every architecture, and the kernel stubs below (sinInto4,
// sinInto8, sincosInto8, desyncSums8, tanhSums8, linComb8, errSumSq8,
// denseFill8, horner8) only panic.
var useSin4, useSin8 = false, false

func sinInto4(dst, x *float64, n int) bool { panic("mathx: no packed sine kernel") }

func sinInto8(dst, x *float64, n int) bool { panic("mathx: no packed sine kernel") }

func sincosInto8(sin, cos, x *float64, n int) bool { panic("mathx: no packed sine kernel") }

func desyncSums8(dst, y []float64, blockPtr, lanes []int32, lo, hi int, w, sigma float64) {
	panic("mathx: no fused Desync kernel")
}

func tanhSums8(dst, y []float64, blockPtr, lanes []int32, lo, hi int) int {
	panic("mathx: no fused tanh kernel")
}

func linComb8(dst, y *float64, n int, h float64, c *float64, k *[]float64, m int) {
	panic("mathx: no 8-wide kernel")
}

func errSumSq8(y, ynew *float64, n int, h, atol, rtol float64, c *[6]float64, k *[6][]float64) float64 {
	panic("mathx: no 8-wide kernel")
}

func denseFill8(rc *[5][]float64, y, ynew, k1, k7 *float64, n int, h float64) {
	panic("mathx: no 8-wide kernel")
}

func horner8(dst *float64, rc *[5][]float64, n int, th, th1 float64) {
	panic("mathx: no 8-wide kernel")
}
