// Package ode implements the explicit initial-value-problem solvers used to
// integrate the physical oscillator model: a fixed-step classic
// Runge–Kutta 4 method, and an adaptive Dormand–Prince 5(4) pair
// with dense output and PI step-size control — the same integrator family
// as MATLAB's ode45, which the paper's artifact uses. A delay-differential
// driver (dde.go) supports the model's interaction-noise delay term
// θ_j(t − τ_ij(t)).
package ode

import (
	"errors"
	"fmt"
)

// Func is the right-hand side of an autonomous-in-form ODE system
// y' = f(t, y). Implementations must write the derivative into dydt and
// must not retain y or dydt.
type Func func(t float64, y, dydt []float64)

// Solution is a trajectory sampled at increasing times. Ys[k] is the state
// at Ts[k].
type Solution struct {
	Ts []float64
	Ys [][]float64
}

// Stepper advances a state by one fixed step of size h with a
// single-step explicit method.
type Stepper interface {
	// Step writes y(t+h) into ynew given y(t). y and ynew must not alias.
	Step(f Func, t float64, y []float64, h float64, ynew []float64)
	// Order returns the convergence order of the method.
	Order() int
	// Name returns a short identifier.
	Name() string
}

// RK4 is the classic four-stage fourth-order Runge–Kutta method.
type RK4 struct{ k1, k2, k3, k4, tmp []float64 }

// Step implements Stepper.
func (r *RK4) Step(f Func, t float64, y []float64, h float64, ynew []float64) {
	n := len(y)
	r.k1 = grow(r.k1, n)
	r.k2 = grow(r.k2, n)
	r.k3 = grow(r.k3, n)
	r.k4 = grow(r.k4, n)
	r.tmp = grow(r.tmp, n)

	f(t, y, r.k1)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + 0.5*h*r.k1[i]
	}
	f(t+0.5*h, r.tmp, r.k2)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + 0.5*h*r.k2[i]
	}
	f(t+0.5*h, r.tmp, r.k3)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + h*r.k3[i]
	}
	f(t+h, r.tmp, r.k4)
	for i := 0; i < n; i++ {
		ynew[i] = y[i] + h/6*(r.k1[i]+2*r.k2[i]+2*r.k3[i]+r.k4[i])
	}
}

// Order implements Stepper.
func (r *RK4) Order() int { return 4 }

// Name implements Stepper.
func (r *RK4) Name() string { return "rk4" }

// FixedSolve integrates y' = f from t0 to t1 with constant step h using the
// given stepper, recording every sampleEvery-th step (1 records all). The
// final point is always recorded.
func FixedSolve(f Func, stepper Stepper, y0 []float64, t0, t1, h float64, sampleEvery int) (*Solution, error) {
	if h <= 0 {
		return nil, errors.New("ode: FixedSolve needs h > 0")
	}
	if t1 < t0 {
		return nil, errors.New("ode: FixedSolve needs t1 >= t0")
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	nSteps := int((t1-t0)/h + 0.5)
	if nSteps < 1 {
		nSteps = 1
	}
	dim := len(y0)
	sol := &Solution{}
	y := append([]float64(nil), y0...)
	ynew := make([]float64, dim)
	record := func(t float64, v []float64) {
		sol.Ts = append(sol.Ts, t)
		sol.Ys = append(sol.Ys, append([]float64(nil), v...))
	}
	record(t0, y)
	t := t0
	for s := 1; s <= nSteps; s++ {
		// Shrink the last step to land exactly on t1.
		step := h
		if s == nSteps {
			step = t1 - t
		}
		stepper.Step(f, t, y, step, ynew)
		y, ynew = ynew, y
		t = t0 + float64(s)*h
		if s == nSteps {
			t = t1
		}
		if s%sampleEvery == 0 || s == nSteps {
			record(t, y)
		}
	}
	return sol, nil
}

// grow returns buf resized to n, reallocating only when needed.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Stats reports the work performed by an adaptive integration.
type Stats struct {
	Steps, Accepted, Rejected int
	Evals                     int
}

// String renders the statistics compactly.
func (s Stats) String() string {
	return fmt.Sprintf("steps=%d accepted=%d rejected=%d evals=%d",
		s.Steps, s.Accepted, s.Rejected, s.Evals)
}
