package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSign(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{3.2, 1}, {-0.1, -1}, {0, 0}, {math.Inf(1), 1}, {math.Inf(-1), -1},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := Sign(c.in); got != c.want {
			t.Errorf("Sign(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %v", got)
	}
}

func TestClampPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	Clamp(0, 2, 1)
}

func TestWrapPiRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		w := WrapPi(x)
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrap2PiRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		w := Wrap2Pi(x)
		return w >= 0 && w < TwoPi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapPiIdentityOnPrincipal(t *testing.T) {
	for _, x := range []float64{-3, -1, 0, 1, 3} {
		if got := WrapPi(x); math.Abs(got-x) > 1e-12 {
			t.Errorf("WrapPi(%v) = %v, want identity", x, got)
		}
	}
}

func TestWrapEquivalenceModulo(t *testing.T) {
	// Wrapped angle must differ from the original by a multiple of 2π.
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
			return true
		}
		k := (x - WrapPi(x)) / TwoPi
		return math.Abs(k-math.Round(k)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Errorf("Linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if xs[len(xs)-1] != 1 {
		t.Error("right endpoint must be exact")
	}
}

func TestInterp1(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 10, 0}
	got, err := Interp1(xs, ys, 0.5)
	if err != nil || got != 5 {
		t.Errorf("Interp1 mid = %v, %v", got, err)
	}
	got, _ = Interp1(xs, ys, -1)
	if got != 0 {
		t.Errorf("left extrapolation = %v", got)
	}
	got, _ = Interp1(xs, ys, 3)
	if got != 0 {
		t.Errorf("right extrapolation = %v", got)
	}
	if _, err := Interp1(nil, nil, 0); err == nil {
		t.Error("want error for empty input")
	}
}

func TestInterp1HitsKnots(t *testing.T) {
	xs := Linspace(0, 10, 11)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	for i, x := range xs {
		got, err := Interp1(xs, ys, x)
		if err != nil || math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("knot %d: got %v want %v", i, got, ys[i])
		}
	}
}

func TestKahanSum(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	xs := make([]float64, 0, 10_000_001)
	xs = append(xs, 1)
	for i := 0; i < 10_000_000; i++ {
		xs = append(xs, 1e-16)
	}
	got := Sum(xs)
	want := 1 + 1e-9
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Kahan Sum = %.18f, want %.18f", got, want)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	xs := []float64{1e300, 1e300}
	got := Norm2(xs)
	want := math.Sqrt2 * 1e300
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestNorm2MatchesNaive(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		xs := []float64{a, b, c}
		naive := math.Sqrt(a*a + b*b + c*c)
		return AlmostEqual(Norm2(xs), naive, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnwrapMonotone(t *testing.T) {
	// A linearly growing phase sampled after wrapping must unwrap back to
	// (a shifted copy of) the line.
	n := 200
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = WrapPi(0.3 * float64(i))
	}
	un := Unwrap(raw)
	for i := 1; i < n; i++ {
		d := un[i] - un[i-1]
		if math.Abs(d-0.3) > 1e-9 {
			t.Fatalf("step %d: unwrapped increment %v, want 0.3", i, d)
		}
	}
}

func TestDiff(t *testing.T) {
	d := Diff(nil, []float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(d) != len(want) {
		t.Fatalf("len = %d", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Diff[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if got := Diff(nil, []float64{1}); len(got) != 0 {
		t.Error("Diff of single element must be empty")
	}
}

func TestArgMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 7, 2}
	if ArgMax(xs) != 2 {
		t.Errorf("ArgMax = %d", ArgMax(xs))
	}
	if ArgMin(xs) != 1 {
		t.Errorf("ArgMin = %d", ArgMin(xs))
	}
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Error("empty ArgMax/ArgMin must be -1")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{2, -5, 9})
	if err != nil || lo != -5 || hi != 9 {
		t.Errorf("MinMax = %v %v %v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("want error on empty")
	}
}

func TestMeanAndMaxAbs(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean failed")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
	}
	if MaxAbs([]float64{-4, 3}) != 4 {
		t.Error("MaxAbs failed")
	}
}

func TestLerp(t *testing.T) {
	if Lerp(2, 4, 0.5) != 3 {
		t.Error("Lerp midpoint")
	}
	if Lerp(2, 4, 0) != 2 || Lerp(2, 4, 1) != 4 {
		t.Error("Lerp endpoints")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-13, 1e-12) {
		t.Error("relative equality failed")
	}
	if AlmostEqual(1, 2, 1e-12) {
		t.Error("unequal values compared equal")
	}
	if !AlmostEqual(0, 0, 0) {
		t.Error("exact equality failed")
	}
}
