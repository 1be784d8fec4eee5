package potential_test

import (
	"math"
	"testing"

	"repro/internal/continuum"
	"repro/internal/mathx"
	"repro/internal/potential"
	"repro/internal/sim"
)

// TestFieldSystemTanhPathsAgree integrates continuum.FieldSystem with the
// tanh flux once on the fused AVX-512 coupling pass and once on the
// portable one, for both boundary kinds and for a gentle and a steep
// pulse (whose Δ reach tanh's mid-range), and requires identical solver
// counts and identical rows, bit for bit.
func TestFieldSystemTanhPathsAgree(t *testing.T) {
	if !mathx.HasAVX512() {
		t.Skip("no fused coupling pass on this CPU")
	}
	for _, periodic := range []bool{false, true} {
		g := continuum.Grid{M: 37, A: 0.7, Periodic: periodic}
		for _, amp := range []float64{2, 40} {
			th0 := make([]float64, g.M)
			for i := range th0 {
				d := (g.X(i) - g.Length()/2) / (3 * g.A)
				th0[i] = -amp * math.Exp(-d*d)
			}
			solve := func(fused bool) *sim.Result {
				defer potential.SetFused(fused)()
				f := &continuum.Field{Grid: g, Potential: potential.Tanh{}, K: 2}
				sys, err := f.System(th0)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sys, 20, 41)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want, got := solve(false), solve(true)
			if got.Stats != want.Stats {
				t.Fatalf("periodic=%v amp=%v: fused stats %+v, portable %+v", periodic, amp, got.Stats, want.Stats)
			}
			for k, row := range want.Ys {
				for i, v := range row {
					if math.Float64bits(got.Ys[k][i]) != math.Float64bits(v) {
						t.Fatalf("periodic=%v amp=%v sample %d point %d: fused %v, portable %v",
							periodic, amp, k, i, got.Ys[k][i], v)
					}
				}
			}
		}
	}
}
