package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.Float64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		if c := seen[v]; c < 9000 || c > 11000 {
			t.Errorf("Intn(6) value %d count %d, want ~10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sum2, sum3 float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sum2 += x * x
		sum3 += x * x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	skew := sum3 / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
	if math.Abs(skew) > 0.03 {
		t.Errorf("normal third moment = %v", skew)
	}
}

func TestNormalMS(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormalMS(5, 2)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.05 {
		t.Errorf("NormalMS mean = %v, want 5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(37)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(-2, 3)
		if x < -2 || x >= 3 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}
