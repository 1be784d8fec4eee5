package noise

import (
	"math"
	"testing"
)

// zetaOnly hides every method but Zeta, forcing BatchOf's fallback.
type zetaOnly struct{ Local }

// TestZetaIntoMatchesZeta pins every batched ζ bitwise to per-row Zeta
// over blocks that start anywhere, at times before, inside, after and
// at the edges of every delay window and across jitter refresh cells,
// including a Sum of Delays, a mixed Sum, a nested Sum, the elementwise
// fallback, and values below a −0.9·P guard. It also pins the loud
// flag: ZetaInto never reports a block quiet while writing a nonzero ζ
// (NaN included), and a Sum of Delays, native or through the fallback,
// is loud exactly when a window covers a rank of the block.
func TestZetaIntoMatchesZeta(t *testing.T) {
	const n = 23
	delay := Delay{Rank: 7, Start: 2, Duration: 1.5, Extra: 40}
	delays := Sum{delay, Delay{Rank: 15, Start: 3, Duration: 2, Extra: 0.25}, Delay{Rank: 7, Start: 6, Duration: 0.5, Extra: 3}}
	negZero := Delay{Rank: 3, Start: 0, Duration: 10, Extra: math.Copysign(0, -1)}
	imb := Imbalance{Extra: map[int]float64{0: 0.3, 7: -0.95, 22: math.Copysign(0, -1)}}
	locals := map[string]Local{
		"none":        None{},
		"delay":       delay,
		"delays":      delays,
		"delays-nan":  Sum{Delay{Rank: 4, Start: 1, Duration: 1, Extra: math.NaN()}},
		"delay-neg0":  negZero,
		"imbalance":   imb,
		"jitter-gaus": Jitter{Dist: Gaussian, Amp: 0.5, Refresh: 1, Seed: 9},
		"jitter-unif": Jitter{Dist: UniformSym, Amp: 2, Refresh: 0.7, Seed: 3, MinPeriodGuard: 0.9},
		"jitter-exp":  Jitter{Dist: Exponential, Amp: 0.2, Refresh: 1, Seed: 4},
		"jitter-off":  Jitter{Amp: 0, Refresh: 1},
		"sum": Sum{delay, Jitter{Dist: Gaussian, Amp: 1.5, Refresh: 1, Seed: 5},
			None{}, imb, Delay{Rank: 7, Start: 2.5, Duration: 3, Extra: -0.5}, negZero},
		"sum-nested":      Sum{Sum{imb, delay}, Jitter{Dist: UniformSym, Amp: 0.4, Refresh: 1, Seed: 2}},
		"fallback":        zetaOnly{Sum{imb, delay}},
		"fallback-delays": zetaOnly{delays},
	}
	for name, l := range locals {
		b := BatchOf(l)
		for _, tm := range []float64{0, 1, 1.5, 1.99, 2, 2.7, 3, math.Nextafter(3.5, 0), 3.5, 4.9, 5, 6, 6.25, 6.5, 100.5} {
			for _, blk := range [][2]int{{0, n}, {0, 7}, {7, 8}, {5, 19}, {8, 15}, {15, 16}, {16, n}, {22, n}, {8, 8}} {
				lo, hi := blk[0], blk[1]
				dst := make([]float64, hi-lo)
				for k := range dst {
					dst[k] = math.NaN() // ZetaInto must overwrite every slot
				}
				loud := b.ZetaInto(dst, lo, tm)
				nonzero := false
				for k, got := range dst {
					want := l.Zeta(lo+k, tm)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: ZetaInto(t=%v)[%d] = %v, Zeta = %v", name, tm, lo+k, got, want)
					}
					nonzero = nonzero || got != 0
				}
				if nonzero && !loud {
					t.Fatalf("%s: ZetaInto(t=%v) on [%d, %d) wrote a nonzero ζ but reported the block quiet", name, tm, lo, hi)
				}
				if (name == "delays" || name == "fallback-delays") && loud != nonzero {
					t.Fatalf("%s: ZetaInto(t=%v) on [%d, %d) loud = %v, want %v", name, tm, lo, hi, loud, nonzero)
				}
			}
		}
	}
	if _, ok := BatchOf(zetaOnly{None{}}).(elementwise); !ok {
		t.Fatal("BatchOf should wrap a Zeta-only noise in the elementwise adapter")
	}
	if _, ok := BatchOf(Sum{delay}).(Sum); !ok {
		t.Fatal("BatchOf(Sum) should be the native implementation")
	}
}
