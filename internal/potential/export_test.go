package potential

// SetFused selects the fused (AVX-512) or the portable Desync and Tanh
// pass for couplers built until the returned function runs. It lets
// tests in this package and in potential_test compare the two.
func SetFused(on bool) (restore func()) {
	old := fused
	fused = on
	return func() { fused = old }
}
