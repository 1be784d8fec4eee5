package kuramoto

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestEvalMatchesScalarSine pins the batched Eval bitwise to the per-row
// math.Sin loop it replaced, and its steady state to zero allocations.
func TestEvalMatchesScalarSine(t *testing.T) {
	m, err := New(Config{N: 64, K: 1.3, FreqStd: 1, Seed: 7, SpreadInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	y := append([]float64(nil), m.InitialState()...)
	y[3] = 1e9 // far outside the fast reduction range
	got := make([]float64, len(y))
	m.Eval(0, y, got)
	r, psi := stats.OrderParameter(y)
	for i, th := range y {
		want := m.omegas[i] + m.cfg.K*r*math.Sin(psi-th)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("dθ[%d] = %v, scalar %v", i, got[i], want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { m.Eval(0, y, got) }); a != 0 {
		t.Fatalf("Eval allocates %v objects per call, want 0", a)
	}
}
