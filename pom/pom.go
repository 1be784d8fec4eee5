// Package pom is the public API of the physical-oscillator-model library:
// a compact facade over the internal packages that implement the paper
// "Physical Oscillator Model for Supercomputing" (Afzal, Hager, Wellein).
//
// The three entry points mirror how the paper is used in practice:
//
//   - Scalable and Bottlenecked build the two canonical scenario
//     configurations of §5 in one call, and NextNeighbor, Stencil and
//     OneOffDelay adjust their topology and noise;
//   - NewModel / Model.Run integrate the coupled-oscillator system
//     (Eq. 2) and return the recorded phase rows;
//   - SimulateMPI runs the matching bulk-synchronous MPI program on the
//     discrete-event cluster simulator for trace-level validation.
//
// Run metrics (idle-wave speed, resynchronization time, phase spread,
// adjacent gaps, frequency locking) come from the streaming sinks of the
// internal packages. See the examples/ directory for complete programs.
package pom

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/topology"
)

// Re-exported model types. The aliases keep one coherent import for
// library users while the implementation lives in focused internal
// packages.
type (
	// Config fully parameterizes an oscillator-model run (Eq. 2).
	Config = core.Config
	// Model is a configured oscillator system.
	Model = core.Model
	// Result is a completed integration: the recorded phase rows.
	Result = core.Result
	// WaveFront is a measured idle-wave propagation front.
	WaveFront = core.WaveFront
	// Topology is the T_ij dependency structure.
	Topology = topology.Topology
	// Potential is the interaction potential V(Δθ).
	Potential = potential.Potential
	// MachineConfig describes simulated cluster hardware.
	MachineConfig = cluster.MachineConfig
	// Kernel is an MPI micro-benchmark workload model.
	Kernel = kernels.Kernel
)

// Initial-condition re-exports.
const (
	Synchronized   = core.Synchronized
	Desynchronized = core.Desynchronized
	RandomPhases   = core.RandomPhases
	CustomPhases   = core.CustomPhases
)

// Protocol and wait-mode re-exports (β and κ rules).
const (
	Eager          = topology.Eager
	Rendezvous     = topology.Rendezvous
	SeparateWaits  = topology.SeparateWaits
	GroupedWaitall = topology.GroupedWaitall
)

// NewModel validates cfg and builds an oscillator model.
func NewModel(cfg Config) (*Model, error) { return core.New(cfg) }

// NextNeighbor returns the d = ±1 stencil topology.
func NextNeighbor(n int, periodic bool) (*Topology, error) {
	return topology.NextNeighbor(n, periodic)
}

// Stencil returns the topology with the given signed offsets.
func Stencil(n int, offsets []int, periodic bool) (*Topology, error) {
	return topology.Stencil(n, offsets, periodic)
}

// OneOffDelay returns local noise that freezes rank for duration·period
// starting at start — the paper's idle-wave trigger. period is the
// oscillator period; the injected extra slowdown is 100 periods, which
// effectively halts the oscillator for the window.
func OneOffDelay(rank int, start, duration, period float64) noise.Local {
	return noise.Delay{Rank: rank, Start: start, Duration: duration, Extra: 100 * period}
}

// Scalable returns the canonical resource-scalable configuration of
// §5.2.1: n oscillators, ±1 chain, tanh potential, unit period.
func Scalable(n int) Config {
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		panic(err) // n < 2 is a programming error at this level
	}
	return Config{
		N:         n,
		TComp:     0.8,
		TComm:     0.2,
		Potential: potential.Tanh{},
		Topology:  tp,
	}
}

// Bottlenecked returns the canonical resource-bottlenecked configuration
// of §5.2.2: n oscillators, ±1 chain, desynchronizing potential with the
// given interaction horizon, a small symmetric-breaking perturbation.
func Bottlenecked(n int, sigma float64) Config {
	cfg := Scalable(n)
	cfg.Potential = potential.NewDesync(sigma)
	cfg.Init = core.RandomPhases
	cfg.PerturbSeed = 1
	cfg.PerturbAmp = 0.02
	return cfg
}

// Meggie returns the paper's primary benchmark machine model.
func Meggie(sockets int) MachineConfig { return cluster.Meggie(sockets) }

// MPIResult is a completed MPI-simulation with its trace.
type MPIResult = cluster.Result

// SimulateMPI runs a bulk-synchronous MPI program (one compute phase and
// one neighbor exchange per iteration) for the given kernel on the
// machine, with an optional one-off delay of extraIters iterations of
// extra work injected at (delayRank, delayIter). Pass delayRank < 0 for an
// undisturbed run.
func SimulateMPI(mc MachineConfig, tp *Topology, k Kernel, iters int,
	delayRank, delayIter int, extraIters float64) (*MPIResult, error) {
	progs, err := cluster.BulkSynchronous(tp, k.Workload(), 1024, iters)
	if err != nil {
		return nil, err
	}
	opts := cluster.Options{}
	if delayRank >= 0 {
		opts.Delays = []cluster.DelayInjection{{
			Rank:  delayRank,
			Iter:  delayIter,
			Extra: extraIters * k.CoreSeconds,
		}}
	}
	engine, err := cluster.NewSim(mc, progs, opts)
	if err != nil {
		return nil, err
	}
	return engine.Run()
}

// STREAM returns the paper's memory-bound kernel.
func STREAM() Kernel { return kernels.STREAM() }
