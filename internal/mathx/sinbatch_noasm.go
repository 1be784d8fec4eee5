//go:build !amd64

package mathx

// Off amd64 there are no packed kernels: SinInto runs the scalar fast
// path and NewDesyncTable returns nil. The gates are variables so tests
// compile unchanged on every architecture.
var useSin4, useSin8 = false, false

func sinInto4(dst, x *float64, n int) bool { panic("mathx: no packed sine kernel") }

func sinInto8(dst, x *float64, n int) bool { panic("mathx: no packed sine kernel") }

func desyncSums8(dst, y []float64, blockPtr, lanes []int32, lo, hi int, w, sigma float64) {
	panic("mathx: no fused Desync kernel")
}
