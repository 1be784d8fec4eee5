package mathx

import (
	"math"
	"testing"
)

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

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{2, -5, 9})
	if err != nil || lo != -5 || hi != 9 {
		t.Errorf("MinMax = %v %v %v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("want error on empty")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean failed")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
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
