package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNextNeighborRing(t *testing.T) {
	tp, err := NextNeighbor(5, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if tp.T.RowNNZ(i) != 2 {
			t.Errorf("rank %d degree = %d, want 2", i, tp.T.RowNNZ(i))
		}
	}
	if tp.T.At(0, 4) != 1 || tp.T.At(4, 0) != 1 {
		t.Error("ring must wrap around")
	}
	if !tp.IsSymmetric() {
		t.Error("±1 ring must be symmetric")
	}
}

func TestNextNeighborChain(t *testing.T) {
	tp, err := NextNeighbor(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if tp.T.RowNNZ(0) != 1 || tp.T.RowNNZ(4) != 1 {
		t.Error("chain boundary ranks must have degree 1")
	}
	if tp.T.RowNNZ(2) != 2 {
		t.Error("interior rank must have degree 2")
	}
	if tp.T.At(0, 4) != 0 {
		t.Error("chain must not wrap")
	}
}

func TestNextPlusNextNext(t *testing.T) {
	tp, err := NextPlusNextNext(10, true)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets −2, −1, +1: degree 3 everywhere on a ring.
	for i := 0; i < 10; i++ {
		if tp.T.RowNNZ(i) != 3 {
			t.Errorf("rank %d degree = %d, want 3", i, tp.T.RowNNZ(i))
		}
	}
	if tp.T.At(5, 3) != 1 {
		t.Error("missing −2 partner")
	}
	// Asymmetric stencil: 3 depends on 5? Only via +1/−1/−2 pattern:
	// T[3][4], T[3][2], T[3][1] — so T[3][5] must be 0.
	if tp.T.At(3, 5) != 0 {
		t.Error("d=−2 stencil should not be symmetric")
	}
	if tp.IsSymmetric() {
		t.Error("−2,−1,+1 stencil must be asymmetric")
	}
}

func TestStencilValidation(t *testing.T) {
	if _, err := Stencil(1, []int{1}, true); err == nil {
		t.Error("want error for n < 2")
	}
	if _, err := Stencil(4, nil, true); err == nil {
		t.Error("want error for empty stencil")
	}
	if _, err := Stencil(4, []int{0}, true); err == nil {
		t.Error("want error for zero offset")
	}
	if _, err := Stencil(4, []int{1, 1}, true); err == nil {
		t.Error("want error for duplicate offset")
	}
	if _, err := Stencil(4, []int{5}, true); err == nil {
		t.Error("want error for out-of-range offset")
	}
}

func TestAllToAll(t *testing.T) {
	tp, err := AllToAll(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if tp.T.RowNNZ(i) != 5 {
			t.Errorf("degree = %d, want 5", tp.T.RowNNZ(i))
		}
		if tp.T.At(i, i) != 0 {
			t.Error("no self-coupling allowed")
		}
	}
	if !tp.IsSymmetric() {
		t.Error("all-to-all must be symmetric")
	}
}

func TestTorus2D(t *testing.T) {
	tp, err := Torus2D(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tp.N != 12 {
		t.Fatalf("N = %d", tp.N)
	}
	for i := 0; i < tp.N; i++ {
		if tp.T.RowNNZ(i) != 4 {
			t.Errorf("rank %d degree = %d, want 4", i, tp.T.RowNNZ(i))
		}
	}
	if !tp.IsSymmetric() {
		t.Error("torus must be symmetric")
	}
	if _, err := Torus2D(1, 5); err == nil {
		t.Error("want error for nx < 2")
	}
}

func TestTorus2DRadius(t *testing.T) {
	// Radius 2 on a large-enough torus: the von Neumann neighborhood has
	// 2r(r+1) = 12 distinct partners, and the matrix stays symmetric.
	tp, err := Torus2DRadius(6, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tp.N != 30 {
		t.Fatalf("N = %d", tp.N)
	}
	for i := 0; i < tp.N; i++ {
		if tp.T.RowNNZ(i) != 12 {
			t.Errorf("rank %d degree = %d, want 12", i, tp.T.RowNNZ(i))
		}
	}
	if !tp.IsSymmetric() {
		t.Error("torus must be symmetric")
	}

	// Radius 1 must be exactly Torus2D.
	r1, err := Torus2DRadius(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := Torus2D(4, 3)
	for i := 0; i < plain.N; i++ {
		for j := 0; j < plain.N; j++ {
			if r1.T.At(i, j) != plain.T.At(i, j) {
				t.Fatalf("radius-1 torus differs from Torus2D at (%d,%d)", i, j)
			}
		}
	}

	// Small torus: wrapped offsets collapse to one 0/1 edge, never 2.
	small, err := Torus2DRadius(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < small.N; i++ {
		for j := 0; j < small.N; j++ {
			if v := small.T.At(i, j); v != 0 && v != 1 {
				t.Fatalf("T[%d,%d] = %v, want 0 or 1", i, j, v)
			}
			if i == j && small.T.At(i, j) != 0 {
				t.Fatalf("self-edge at rank %d", i)
			}
		}
	}
	if !small.IsSymmetric() {
		t.Error("wrapped torus must stay symmetric")
	}

	if _, err := Torus2DRadius(4, 4, 0); err == nil {
		t.Error("want error for radius < 1")
	}
	if _, err := Torus2DRadius(3, 3, 7); err == nil {
		t.Error("want error for oversized radius")
	}
}

// TestTorus2DRadiusPastSides checks radii larger than nx or ny, whose
// offsets wrap more than once, against a brute-force neighbor set: every
// rank j ≠ i within Manhattan distance radius of i for some choice of
// wrap (x_j + a·nx, y_j + b·ny).
func TestTorus2DRadiusPastSides(t *testing.T) {
	for _, c := range []struct{ nx, ny, radius int }{{3, 2, 3}, {3, 2, 4}, {2, 2, 3}, {4, 2, 5}, {5, 3, 7}} {
		tp, err := Torus2DRadius(c.nx, c.ny, c.radius)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		for i := 0; i < tp.N; i++ {
			xi, yi := i%c.nx, i/c.nx
			for j := 0; j < tp.N; j++ {
				xj, yj := j%c.nx, j/c.nx
				want := false
				for a := -c.radius; a <= c.radius && !want; a++ {
					for b := -c.radius; b <= c.radius && !want; b++ {
						d := abs(xj+a*c.nx-xi) + abs(yj+b*c.ny-yi)
						want = j != i && d <= c.radius
					}
				}
				if got := tp.T.At(i, j); got != map[bool]float64{false: 0, true: 1}[want] {
					t.Fatalf("%+v: T[%d,%d] = %v, want neighbor=%v", c, i, j, got, want)
				}
			}
		}
	}
}

func TestRandomSymmetricAndDeterministic(t *testing.T) {
	r1 := stats.NewRNG(99)
	r2 := stats.NewRNG(99)
	a, err := Random(20, 0.3, r1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Random(20, 0.3, r2)
	if !a.IsSymmetric() {
		t.Error("random topology must be symmetric")
	}
	if !slices.Equal(a.T.ColIdx(), b.T.ColIdx()) {
		t.Error("same seed must give same topology")
	}
	if _, err := Random(10, 1.5, r1); err == nil {
		t.Error("want error for p > 1")
	}
}

func TestRandomEdgeDensity(t *testing.T) {
	r := stats.NewRNG(7)
	tp, err := Random(100, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 100 * 99 / 2
	got := float64(len(tp.T.ColIdx())) / 2 / float64(pairs)
	if math.Abs(got-0.2) > 0.04 {
		t.Errorf("edge density = %v, want ≈ 0.2", got)
	}
}

func TestKappaRules(t *testing.T) {
	tp, _ := Stencil(10, []int{-2, -1, 1}, true)
	if k := tp.Kappa(SeparateWaits); k != 4 { // |−2|+|−1|+|1|
		t.Errorf("Σ|d| κ = %v, want 4", k)
	}
	if k := tp.Kappa(GroupedWaitall); k != 2 { // max|d|
		t.Errorf("max|d| κ = %v, want 2", k)
	}
	nn, _ := NextNeighbor(10, true)
	if k := nn.Kappa(SeparateWaits); k != 2 {
		t.Errorf("±1 Σ|d| κ = %v, want 2", k)
	}
	if k := nn.Kappa(GroupedWaitall); k != 1 {
		t.Errorf("±1 max|d| κ = %v, want 1", k)
	}
}

func TestKappaIrregularFallback(t *testing.T) {
	tp, _ := AllToAll(5)
	if k := tp.Kappa(GroupedWaitall); k != 1 {
		t.Errorf("grouped κ = %v, want 1", k)
	}
	if k := tp.Kappa(SeparateWaits); k != 4 { // mean degree
		t.Errorf("separate κ = %v, want 4", k)
	}
}

func TestCoupling(t *testing.T) {
	tp, _ := NextNeighbor(8, true)
	// v_p = βκ/period: eager ±1 separate waits → 1·2/period.
	if v := tp.Coupling(Eager, SeparateWaits, 1.5, 0.5); v != 1 {
		t.Errorf("coupling = %v, want 1", v)
	}
	if v := tp.Coupling(Rendezvous, SeparateWaits, 1.5, 0.5); v != 2 {
		t.Errorf("rendezvous coupling = %v, want 2", v)
	}
	if v := tp.Coupling(Eager, GroupedWaitall, 1.5, 0.5); v != 0.5 {
		t.Errorf("grouped coupling = %v, want 0.5", v)
	}
}

func TestCouplingPanics(t *testing.T) {
	tp, _ := NextNeighbor(4, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	tp.Coupling(Eager, SeparateWaits, 0, 0)
}

func TestProtocolAndWaitModeStrings(t *testing.T) {
	if Eager.String() != "eager" || Rendezvous.String() != "rendezvous" {
		t.Error("Protocol strings")
	}
	if Eager.Beta() != 1 || Rendezvous.Beta() != 2 {
		t.Error("Beta values")
	}
	if SeparateWaits.String() == GroupedWaitall.String() {
		t.Error("WaitMode strings must differ")
	}
}

func TestStencilNeighborsConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 4 + r.Intn(30)
		offs := []int{1, -1}
		if r.Float64() < 0.5 {
			offs = append(offs, -2)
		}
		tp, err := Stencil(n, offs, true)
		if err != nil {
			return false
		}
		nb := tp.Neighbors()
		for i := range nb {
			if len(nb[i]) != tp.T.RowNNZ(i) {
				return false
			}
			for _, j := range nb[i] {
				if tp.T.At(i, j) != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
