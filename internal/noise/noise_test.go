package noise

import (
	"math"
	"testing"
)

func TestNone(t *testing.T) {
	var n None
	if n.Zeta(3, 1.5) != 0 || n.Tau(1, 2, 0.5) != 0 || n.Max() != 0 {
		t.Error("None must be silent")
	}
}

func TestJitterFrozenWithinCell(t *testing.T) {
	j := Jitter{Dist: Gaussian, Amp: 0.1, Refresh: 1, Seed: 5}
	// Same rank, same cell → identical value regardless of sub-cell time.
	a := j.Zeta(2, 3.1)
	b := j.Zeta(2, 3.9)
	if a != b {
		t.Errorf("jitter not frozen within cell: %v vs %v", a, b)
	}
	// Different cells differ (with overwhelming probability).
	c := j.Zeta(2, 4.1)
	if a == c {
		t.Error("jitter identical across cells")
	}
	// Different ranks differ.
	d := j.Zeta(3, 3.1)
	if a == d {
		t.Error("jitter identical across ranks")
	}
}

func TestJitterDeterministicAcrossInstances(t *testing.T) {
	j1 := Jitter{Dist: UniformSym, Amp: 0.2, Refresh: 0.5, Seed: 42}
	j2 := Jitter{Dist: UniformSym, Amp: 0.2, Refresh: 0.5, Seed: 42}
	for i := 0; i < 10; i++ {
		for _, tt := range []float64{0, 0.3, 1.7, 9.99} {
			if j1.Zeta(i, tt) != j2.Zeta(i, tt) {
				t.Fatalf("same-seed instances disagree at (%d, %v)", i, tt)
			}
		}
	}
	j3 := Jitter{Dist: UniformSym, Amp: 0.2, Refresh: 0.5, Seed: 43}
	if j1.Zeta(0, 0) == j3.Zeta(0, 0) {
		t.Error("different seeds should differ")
	}
}

func TestJitterDistributionsMoments(t *testing.T) {
	const cells = 20000
	moments := func(j Jitter) (mean, std float64) {
		var s, s2 float64
		for c := 0; c < cells; c++ {
			z := j.Zeta(0, float64(c)+0.5)
			s += z
			s2 += z * z
		}
		mean = s / cells
		std = math.Sqrt(s2/cells - mean*mean)
		return mean, std
	}
	g := Jitter{Dist: Gaussian, Amp: 0.5, Refresh: 1, Seed: 1}
	m, s := moments(g)
	if math.Abs(m) > 0.02 || math.Abs(s-0.5) > 0.02 {
		t.Errorf("gaussian jitter mean=%v std=%v", m, s)
	}
	u := Jitter{Dist: UniformSym, Amp: 0.6, Refresh: 1, Seed: 2}
	m, s = moments(u)
	if math.Abs(m) > 0.02 || math.Abs(s-0.6/math.Sqrt(3)) > 0.02 {
		t.Errorf("uniform jitter mean=%v std=%v", m, s)
	}
	e := Jitter{Dist: Exponential, Amp: 0.3, Refresh: 1, Seed: 3}
	m, _ = moments(e)
	if math.Abs(m-0.3) > 0.02 {
		t.Errorf("exponential jitter mean=%v, want 0.3", m)
	}
	for c := 0; c < 1000; c++ {
		if e.Zeta(0, float64(c)) < 0 {
			t.Fatal("exponential jitter must be nonnegative")
		}
	}
}

func TestJitterGuard(t *testing.T) {
	j := Jitter{Dist: Gaussian, Amp: 100, Refresh: 1, Seed: 4, MinPeriodGuard: 0.9}
	for c := 0; c < 1000; c++ {
		if z := j.Zeta(1, float64(c)); z < -0.9 {
			t.Fatalf("guard violated: %v", z)
		}
	}
}

func TestJitterZeroAmp(t *testing.T) {
	j := Jitter{Dist: Gaussian, Amp: 0, Refresh: 1}
	if j.Zeta(0, 5) != 0 {
		t.Error("zero amplitude must be silent")
	}
	j = Jitter{Dist: Gaussian, Amp: 1, Refresh: 0}
	if j.Zeta(0, 5) != 0 {
		t.Error("zero refresh must be silent")
	}
}

func TestImbalance(t *testing.T) {
	im := Imbalance{Extra: map[int]float64{2: 0.25}}
	if im.Zeta(2, 0) != 0.25 || im.Zeta(2, 99) != 0.25 {
		t.Error("imbalance must be static")
	}
	if im.Zeta(1, 0) != 0 {
		t.Error("unlisted ranks must be unaffected")
	}
}

func TestDelayWindow(t *testing.T) {
	d := Delay{Rank: 5, Start: 10, Duration: 2, Extra: 100}
	if d.Zeta(5, 9.99) != 0 {
		t.Error("before window")
	}
	if d.Zeta(5, 10) != 100 || d.Zeta(5, 11.99) != 100 {
		t.Error("inside window")
	}
	if d.Zeta(5, 12) != 0 {
		t.Error("window end is exclusive")
	}
	if d.Zeta(4, 11) != 0 {
		t.Error("other ranks unaffected")
	}
}

func TestSumComposes(t *testing.T) {
	s := Sum{
		Imbalance{Extra: map[int]float64{1: 0.5}},
		Delay{Rank: 1, Start: 0, Duration: 10, Extra: 2},
	}
	if got := s.Zeta(1, 5); got != 2.5 {
		t.Errorf("Sum = %v, want 2.5", got)
	}
	if got := s.Zeta(0, 5); got != 0 {
		t.Errorf("Sum unaffected rank = %v", got)
	}
}

func TestCommJitterBoundsAndFrozen(t *testing.T) {
	c := CommJitter{MinDelay: 0.1, MaxDelay: 0.4, Refresh: 1, Seed: 9}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			for _, tt := range []float64{0.2, 5.7, 33.3} {
				tau := c.Tau(i, j, tt)
				if tau < 0.1 || tau > 0.4 {
					t.Fatalf("tau out of bounds: %v", tau)
				}
				if tau != c.Tau(i, j, tt) {
					t.Fatal("tau not deterministic")
				}
			}
		}
	}
	if c.Tau(1, 2, 0.1) != c.Tau(1, 2, 0.9) {
		t.Error("tau not frozen within cell")
	}
	if c.Max() != 0.4 {
		t.Errorf("Max = %v", c.Max())
	}
}

func TestCommJitterPairAsymmetry(t *testing.T) {
	// τ_ij and τ_ji are distinct streams (directional communication).
	c := CommJitter{MinDelay: 0, MaxDelay: 1, Refresh: 1, Seed: 11}
	same := 0
	for cell := 0; cell < 100; cell++ {
		if c.Tau(1, 2, float64(cell)) == c.Tau(2, 1, float64(cell)) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("τ_12 == τ_21 in %d cells", same)
	}
}

func TestConstantLag(t *testing.T) {
	c := ConstantLag{Lag: 0.25}
	if c.Tau(3, 4, 100) != 0.25 || c.Max() != 0.25 {
		t.Error("ConstantLag broken")
	}
}
