// Package experiments contains one driver per figure and quantitative
// claim of the paper's evaluation. Every driver returns structured
// rows/series that the pomexp command prints and plots and that
// bench_test.go regenerates under testing.B. This is the experiment
// index, in the order pomexp runs it (pomexp -only e1…e9; E3 and E4
// share one Fig2All run over the Fig. 2 grid):
//
//	E1  Fig. 1(a)    Fig1aPotentials      potential shapes
//	E2  Fig. 1(b)    Fig1bScalability     socket scalability of the three kernels
//	E3  Fig. 2(a,c)  Fig2All              scalable code: idle wave, decay, resynchronization
//	E4  Fig. 2(b,d)  Fig2All              bottlenecked code: idle wave + computational wavefront
//	E5  §5.1.1       WaveSpeedVsCoupling  idle-wave speed vs. coupling βκ
//	E6  §5.2.2       StiffnessSweep       stiffness: 3× speed, reduced phase spread, 2σ/3 gaps
//	E7  §2.2.2       KuramotoBaseline     plain-Kuramoto baseline (why KM is unsuitable)
//	E8  §6           NoiseDecay           idle-wave decay under noise (the open question)
//	E9  §2.2.2       CollectiveBarrier    collectives as synchronizing barriers (trace side)
package experiments

import (
	"fmt"

	"repro/internal/potential"
)

// E1Row is one sampled potential curve of Fig. 1(a).
type E1Row struct {
	Name   string
	Xs, Ys []float64
	// StableZero is the analytic first stable zero (0 for tanh, 2σ/3 for
	// the desync potential).
	StableZero float64
	// MeasuredZero is the first positive zero found numerically (NaN-free:
	// 0 when none exists in range).
	MeasuredZero float64
}

// E1Result reproduces Fig. 1(a).
type E1Result struct {
	Sigma float64
	Rows  []E1Row
}

// Fig1aPotentials samples the scalable (tanh) and bottlenecked (σ-horizon)
// potentials over Δθ ∈ [−10, 10] with σ = 5, as in Fig. 1(a), and locates
// the desync potential's first positive zero.
func Fig1aPotentials(sigma float64, n int) (*E1Result, error) {
	if sigma <= 0 || n < 16 {
		return nil, fmt.Errorf("experiments: invalid Fig1a parameters")
	}
	res := &E1Result{Sigma: sigma}
	for _, p := range []potential.Potential{potential.Tanh{}, potential.NewDesync(sigma)} {
		xs, ys := potential.Sample(p, -10, 10, n)
		row := E1Row{Name: p.Name(), Xs: xs, Ys: ys}
		if a, ok := p.(potential.Analyzable); ok {
			row.StableZero = a.StableZero()
		}
		zeros := potential.FindZeros(p, 0.05, 10, 4*n, 1e-10)
		if len(zeros) > 0 {
			row.MeasuredZero = zeros[0]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
