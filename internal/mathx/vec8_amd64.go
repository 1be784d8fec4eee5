//go:build amd64

package mathx

// The assembly behind vec8.go (vec8_amd64.s). Pointers are unchecked:
// the exported wrappers verify the lengths. For linComb8, k points at
// the first of m slice headers and c at the first of m coefficients; a
// nil y drops the y[i] + term.

//go:noescape
func linComb8(dst, y *float64, n int, h float64, c *float64, k *[]float64, m int)

//go:noescape
func errSumSq8(y, ynew *float64, n int, h, atol, rtol float64, c *[6]float64, k *[6][]float64) float64

//go:noescape
func denseFill8(rc *[5][]float64, y, ynew, k1, k7 *float64, n int, h float64)

//go:noescape
func horner8(dst *float64, rc *[5][]float64, n int, th, th1 float64)
