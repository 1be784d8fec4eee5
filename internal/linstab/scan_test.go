package linstab

import (
	"math"
	"testing"

	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// gapScan builds the canonical scan: the wavefront state's uniform gap
// swept from lockstep (0) to the desync potential's stable zero.
func gapScan(t *testing.T, points int, tEnd float64) (*Scan, *topology.Topology, potential.Potential) {
	t.Helper()
	tp, err := topology.NextNeighbor(16, false)
	if err != nil {
		t.Fatal(err)
	}
	pot := potential.NewDesync(1.5)
	eval := func(u float64) ([]float64, error) {
		cl, err := Classify(tp, pot, WavefrontState(tp.N, u), 1)
		if err != nil {
			return nil, err
		}
		return SummaryRow(cl), nil
	}
	s, err := NewScan(eval, 0, pot.StableZero(), points, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	return s, tp, pot
}

// TestNewScanValidation covers the constructor error paths.
func TestNewScanValidation(t *testing.T) {
	ok := func(u float64) ([]float64, error) { return []float64{u}, nil }
	cases := []struct {
		name string
		call func() (*Scan, error)
	}{
		{"nil eval", func() (*Scan, error) { return NewScan(nil, 0, 1, 5, 1) }},
		{"one point", func() (*Scan, error) { return NewScan(ok, 0, 1, 1, 1) }},
		{"empty range", func() (*Scan, error) { return NewScan(ok, 1, 1, 5, 1) }},
		{"reversed range", func() (*Scan, error) { return NewScan(ok, 2, 1, 5, 1) }},
		{"NaN range", func() (*Scan, error) { return NewScan(ok, math.NaN(), 1, 5, 1) }},
		{"zero tEnd", func() (*Scan, error) { return NewScan(ok, 0, 1, 5, 0) }},
		{"width change", func() (*Scan, error) {
			n := 0
			return NewScan(func(u float64) ([]float64, error) {
				n++
				return make([]float64, n), nil
			}, 0, 1, 3, 1)
		}},
		{"non-finite value", func() (*Scan, error) {
			return NewScan(func(u float64) ([]float64, error) {
				return []float64{math.Inf(1)}, nil
			}, 0, 1, 3, 1)
		}},
	}
	for _, c := range cases {
		if _, err := c.call(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// TestScanReplaysClassification integrates the scan through the unified
// runtime and checks every sample row against a direct classification at
// the corresponding parameter: the replay is the scan, to solver
// accuracy, and the stability transition (lockstep unstable → wavefront
// stable under the desync potential) is visible in the streamed rows.
func TestScanReplaysClassification(t *testing.T) {
	const points, tEnd = 41, 1.0
	s, tp, pot := gapScan(t, points, tEnd)
	if s.Dim() != 3 {
		t.Fatalf("summary scan dim = %d, want 3", s.Dim())
	}

	res, err := sim.Run(s, tEnd, points) // samples aligned with knots
	if err != nil {
		t.Fatal(err)
	}
	for k, row := range res.Ys {
		u := pot.(potential.Desync).StableZero() * res.Ts[k] / tEnd // the scan parameter at t
		cl, err := Classify(tp, pot, WavefrontState(tp.N, u), 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := SummaryRow(cl)
		for i := range ref {
			if math.Abs(row[i]-ref[i]) > 1e-4 {
				t.Fatalf("sample %d field %d: replay %v, direct %v", k, i, row[i], ref[i])
			}
		}
	}

	// Physics: lockstep is unstable (all non-Goldstone modes grow),
	// the developed wavefront at the stable zero is stable.
	first, last := res.Ys[0], res.Ys[len(res.Ys)-1]
	if first[1] != float64(tp.N-1) {
		t.Errorf("lockstep unstable count = %v, want %d", first[1], tp.N-1)
	}
	if math.Round(last[1]) != 0 {
		t.Errorf("wavefront unstable count = %v, want 0", last[1])
	}
	if first[0] <= 0 || last[0] > 1e-7 {
		t.Errorf("max eigenvalue: lockstep %v (want > 0), wavefront %v (want <= 0)", first[0], last[0])
	}
}

// TestScanFullSpectrumRows checks a full-spectrum scan: rows are the
// ascending eigenvalues, and the replayed initial state is exact.
func TestScanFullSpectrumRows(t *testing.T) {
	tp, err := topology.NextNeighbor(8, false)
	if err != nil {
		t.Fatal(err)
	}
	pot := potential.Tanh{}
	eval := func(u float64) ([]float64, error) {
		j, err := Jacobian(tp, pot, WavefrontState(tp.N, u), 1)
		if err != nil {
			return nil, err
		}
		return SymEig(j)
	}
	s, err := NewScan(eval, 0, 0.5, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 8 {
		t.Fatalf("dim = %d", s.Dim())
	}
	direct, err := eval(0)
	if err != nil {
		t.Fatal(err)
	}
	y0 := s.InitialState()
	for i := range direct {
		if math.Float64bits(y0[i]) != math.Float64bits(direct[i]) {
			t.Fatalf("initial spectrum differs at %d", i)
		}
	}
	for i := 1; i < len(y0); i++ {
		if y0[i] < y0[i-1] {
			t.Fatal("spectrum rows must be ascending")
		}
	}
}
