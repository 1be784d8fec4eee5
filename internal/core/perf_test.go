package core

import (
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/topology"
)

// perfModel builds an N-oscillator sine-potential ring model for the
// allocation and determinism tests.
func perfModel(t testing.TB, n, workers int, local noise.Local) *Model {
	t.Helper()
	tp, err := topology.NextNeighbor(n, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		N: n, TComp: 0.8, TComm: 0.2,
		Potential:  potential.KuramotoSine{},
		Topology:   tp,
		LocalNoise: local,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRHSZeroAllocs asserts the performance invariant of the flat-CSR
// right-hand side: zero steady-state allocations, serial and parallel,
// without noise and under a delay whose window covers t = 0 but not
// t = 2, so both the loud and the quiet frequency rows run.
func TestRHSZeroAllocs(t *testing.T) {
	const n = 256
	y := make([]float64, n)
	dydt := make([]float64, n)
	for i := range y {
		y[i] = 0.01 * float64(i)
	}
	delay := noise.Sum{noise.Delay{Rank: 9, Start: 0, Duration: 1, Extra: 5}}
	for _, tc := range []struct {
		name    string
		workers int
		local   noise.Local
	}{
		{"serial", 1, nil},
		{"workers4", 4, nil},
		{"serial-delay", 1, delay},
		{"workers4-delay", 4, delay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := perfModel(t, n, tc.workers, tc.local)
			defer m.Close()
			m.Eval(0, y, dydt) // warm scratch buffers and worker pool
			allocs := testing.AllocsPerRun(100, func() {
				m.Eval(0, y, dydt)
				m.Eval(2, y, dydt)
			})
			if allocs != 0 {
				t.Fatalf("Eval allocates %v objects per call in steady state, want 0", allocs)
			}
		})
	}
}

// TestRHSMatchesScalarReference cross-checks the batched evaluation
// against a direct scalar transcription of Eq. (2) for every built-in
// potential shape.
func TestRHSMatchesScalarReference(t *testing.T) {
	const n = 64
	tp, err := topology.Stencil(n, []int{-2, -1, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	pots := []potential.Potential{
		potential.KuramotoSine{},
		potential.Tanh{},
		potential.Linear{},
		potential.NewDesync(1.5),
		potential.Clipped{Inner: potential.Linear{}, Limit: 0.7},
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Sin(0.37 * float64(i))
	}
	for _, p := range pots {
		m, err := New(Config{
			N: n, TComp: 0.8, TComm: 0.2, Potential: p, Topology: tp,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		m.Eval(0, y, got)
		nb := tp.Neighbors()
		k := m.Coupling()
		for i := 0; i < n; i++ {
			var c float64
			for _, j := range nb[i] {
				c += p.Eval(y[j] - y[i])
			}
			want := m.Omega() + k*c
			if got[i] != want {
				t.Fatalf("%s: dydt[%d] = %v, scalar reference %v", p.Name(), i, got[i], want)
			}
		}
	}
}

// TestWorkersDeterminism asserts that parallel right-hand-side evaluation
// reproduces the serial integration bit-for-bit: a Kuramoto ring under
// local noise with 4 workers, a Desync 6×5 torus with 3 workers, whose
// chunks start and end inside the fused kernel's 8-row blocks, and a
// tanh ring under a Sum of Delays with 3 workers, which runs quiet
// before and after the windows and, inside them, has the delayed rank's
// chunk loud while the others stay quiet.
func TestWorkersDeterminism(t *testing.T) {
	const n = 96
	local := noise.Sum{
		noise.Delay{Rank: n / 2, Start: 5, Duration: 2, Extra: 50},
		noise.Jitter{Dist: noise.Gaussian, Amp: 0.02, Refresh: 1, Seed: 7},
	}
	torus, err := topology.Torus2D(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	desync := func(workers int) *Model {
		m, err := New(Config{
			N: 30, TComp: 0.8, TComm: 0.2,
			Potential: potential.NewDesync(0.9),
			Topology:  torus,
			Init:      RandomPhases, PerturbSeed: 3, PerturbAmp: 1.5,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ring, err := topology.NextNeighbor(n, true)
	if err != nil {
		t.Fatal(err)
	}
	delays := noise.Sum{
		noise.Delay{Rank: 5, Start: 5, Duration: 2, Extra: 20},
		noise.Delay{Rank: 70, Start: 6, Duration: 3, Extra: 4},
	}
	tanh := func(workers int) *Model {
		m, err := New(Config{
			N: n, TComp: 0.8, TComm: 0.2,
			Potential:  potential.Tanh{},
			Topology:   ring,
			LocalNoise: delays,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name             string
		serial, parallel *Model
	}{
		{"kuramoto-ring/workers4", perfModel(t, n, 1, local), perfModel(t, n, 4, local)},
		{"desync-torus6x5/workers3", desync(1), desync(3)},
		{"tanh-ring-delays/workers3", tanh(1), tanh(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.parallel.Close()
			resS, err := tc.serial.Run(40, 201)
			if err != nil {
				t.Fatal(err)
			}
			resP, err := tc.parallel.Run(40, 201)
			if err != nil {
				t.Fatal(err)
			}
			if len(resS.Theta) != len(resP.Theta) {
				t.Fatalf("sample counts differ: %d vs %d", len(resS.Theta), len(resP.Theta))
			}
			for k := range resS.Theta {
				for i := range resS.Theta[k] {
					if resS.Theta[k][i] != resP.Theta[k][i] {
						t.Fatalf("sample %d oscillator %d: serial %v != parallel %v (diff %g)",
							k, i, resS.Theta[k][i], resP.Theta[k][i],
							resS.Theta[k][i]-resP.Theta[k][i])
					}
				}
			}
			if resS.Stats != resP.Stats {
				t.Fatalf("solver stats diverge: serial %v, parallel %v", resS.Stats, resP.Stats)
			}
		})
	}
}
