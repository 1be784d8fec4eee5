package linstab

import (
	"math"
	"sort"
	"testing"

	"repro/internal/linalg"
	"repro/internal/potential"
	"repro/internal/topology"
)

// symEigAtSet is the element-accessor Jacobi sweep SymEig was written as
// before it walked row views; the row version must keep its bits.
func symEigAtSet(m *linalg.Dense) []float64 {
	n, _ := m.Dims()
	scale := m.Frobenius()
	a := m.Clone()
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if math.Sqrt(2*off) <= 1e-12*math.Max(scale, 1) {
			eigs := make([]float64, n)
			for i := range eigs {
				eigs[i] = a.At(i, i)
			}
			sort.Float64s(eigs)
			return eigs
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				for i := 0; i < n; i++ {
					aip, aiq := a.At(i, p), a.At(i, q)
					a.Set(i, p, cth*aip-sth*aiq)
					a.Set(i, q, sth*aip+cth*aiq)
				}
				for i := 0; i < n; i++ {
					api, aqi := a.At(p, i), a.At(q, i)
					a.Set(p, i, cth*api-sth*aqi)
					a.Set(q, i, sth*api+cth*aqi)
				}
			}
		}
	}
	return nil
}

// TestSymEigMatchesAtSetReference pins SymEig's eigenvalues bitwise to
// the element-accessor sweep on wavefront Jacobians and a dense matrix.
func TestSymEigMatchesAtSetReference(t *testing.T) {
	var mats []*linalg.Dense
	for _, n := range []int{2, 7, 32} {
		tp, err := topology.Stencil(n, []int{-1, 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, gap := range []float64{0, 0.4, 1.0} {
			j, err := Jacobian(tp, potential.NewDesync(1.5), WavefrontState(n, gap), 0.9)
			if err != nil {
				t.Fatal(err)
			}
			mats = append(mats, j)
		}
	}
	dense := linalg.NewDense(9, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j <= i; j++ {
			v := math.Sin(float64(3*i+7*j)) / float64(1+i+j)
			dense.Set(i, j, v)
			dense.Set(j, i, v)
		}
	}
	mats = append(mats, dense)
	for k, m := range mats {
		got, err := SymEig(m)
		if err != nil {
			t.Fatal(err)
		}
		want := symEigAtSet(m)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("matrix %d: λ[%d] = %v, reference %v", k, i, got[i], want[i])
			}
		}
	}
}

// scanJacobians are the Jacobians examples/scenarios/linstab.json solves:
// N = 32 on the open ±1 chain, desync σ = 1.5, k = 1, at the 41 wavefront
// gaps 0, 0.0375, …, 1.5 (NewScan's knots).
func scanJacobians(tb testing.TB) []*linalg.Dense {
	tp, err := topology.Stencil(32, []int{-1, 1}, false)
	if err != nil {
		tb.Fatal(err)
	}
	const from, to, points = 0, 1.5, 41
	js := make([]*linalg.Dense, points)
	for k := range js {
		gap := from + (to-from)*float64(k)/float64(points-1)
		if k == points-1 {
			gap = to
		}
		if js[k], err = Jacobian(tp, potential.NewDesync(1.5), WavefrontState(32, gap), 1); err != nil {
			tb.Fatal(err)
		}
	}
	return js
}

// BenchmarkSymEigScan times the eigensolves of one linstab example scan:
// SymEig over its 41 Jacobians, which is nearly all of the family's run.
func BenchmarkSymEigScan(b *testing.B) {
	js := scanJacobians(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range js {
			if _, err := SymEig(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}
