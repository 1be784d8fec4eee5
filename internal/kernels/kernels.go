// Package kernels models the paper's three MPI micro-benchmarks (§4) as
// analytic workloads for the cluster simulator:
//
//   - PISOLVER: midpoint-rule quadrature of ∫4/(1+x²)dx — pure arithmetic,
//     negligible memory traffic, perfectly resource-scalable;
//   - STREAM triad A(:)=B(:)+s*C(:): strongly memory-bound, saturates the
//     socket bandwidth with a few cores;
//   - "slow" Schönauer triad A(:)=B(:)+cos(C(:)/D(:)): the low-throughput
//     cosine and floating-point division lower the per-core bandwidth
//     demand, shifting the saturation point to a higher core count.
//
// A kernel is characterized by its per-core execution speed and the memory
// traffic per iteration sweep; the interplay with the socket bandwidth
// model of package cluster reproduces the scalability curves of Fig. 1(b).
package kernels

import (
	"fmt"

	"repro/internal/cluster"
)

// Kernel describes one micro-benchmark workload per sweep (one outer
// iteration of the bulk-synchronous loop).
type Kernel struct {
	// Name labels the kernel.
	Name string
	// CoreSeconds is the nominal single-core execution time of one sweep
	// when memory bandwidth is unlimited (in-cache execution speed).
	CoreSeconds float64
	// Bytes is the memory traffic of one sweep (working sets are chosen
	// ≥ 10× LLC, so every sweep moves its full traffic, §4).
	Bytes float64
}

// Workload converts the kernel to the cluster simulator's workload type.
func (k Kernel) Workload() cluster.Workload {
	return cluster.Workload{Seconds: k.CoreSeconds, Bytes: k.Bytes}
}

// The paper's working sets: arrays of 20 M double-precision elements per
// rank (≥ 10× the 25 MB Broadwell LLC).
const sweepElements = 20e6

// STREAM returns the STREAM triad kernel calibrated for the Meggie socket:
// 32 bytes/element (read B, read C, write-allocate + write A) at a
// per-core demand of ≈ 13 GB/s, so a 53 GB/s socket saturates at ≈ 4
// cores, matching Fig. 1(b).
func STREAM() Kernel {
	bytes := 32.0 * sweepElements // 640 MB per sweep
	perCore := 13e9
	return Kernel{Name: "STREAM", CoreSeconds: bytes / perCore, Bytes: bytes}
}

// Schoenauer returns the "slow" Schönauer triad: 40 bytes/element (four
// arrays) but throttled by cos and FP division to a per-core demand of
// ≈ 7.5 GB/s, so saturation moves out to ≈ 7 cores (Fig. 1b).
func Schoenauer() Kernel {
	bytes := 40.0 * sweepElements // 800 MB per sweep
	perCore := 7.5e9
	return Kernel{Name: "SlowSchoenauer", CoreSeconds: bytes / perCore, Bytes: bytes}
}

// Pisolver returns the PISOLVER kernel: 500 M midpoint-rule steps of pure
// arithmetic. Per-sweep time is scaled down to keep simulated experiments
// short; memory traffic is negligible (loop counters and one accumulator).
func Pisolver() Kernel {
	return Kernel{Name: "PISOLVER", CoreSeconds: 50e-3, Bytes: 1e3}
}

// ByName returns the kernel with the given name.
func ByName(name string) (Kernel, error) {
	switch name {
	case "STREAM", "stream":
		return STREAM(), nil
	case "SlowSchoenauer", "schoenauer", "slow-schoenauer":
		return Schoenauer(), nil
	case "PISOLVER", "pisolver":
		return Pisolver(), nil
	}
	return Kernel{}, fmt.Errorf("kernels: unknown kernel %q", name)
}

// All returns the three paper kernels in Fig. 1(b) order.
func All() []Kernel {
	return []Kernel{STREAM(), Schoenauer(), Pisolver()}
}

// ScalabilityPoint is one (processes, aggregate bandwidth) sample of the
// socket scaling curve.
type ScalabilityPoint struct {
	// Processes is the rank count on the socket.
	Processes int
	// BandwidthMBs is the achieved aggregate memory bandwidth in MB/s
	// (the unit of Fig. 1b).
	BandwidthMBs float64
	// TimePerSweep is the observed mean sweep duration.
	TimePerSweep float64
}

// SocketScalability runs k = 1…maxProcs ranks of the kernel on one socket
// of the machine (no inter-rank communication — pure bandwidth scaling,
// as in the paper's saturation measurement) and reports the aggregate
// bandwidth for each k.
func SocketScalability(mc cluster.MachineConfig, k Kernel, maxProcs, iters int) ([]ScalabilityPoint, error) {
	if maxProcs < 1 || maxProcs > mc.CoresPerSocket {
		return nil, fmt.Errorf("kernels: maxProcs %d out of 1..%d", maxProcs, mc.CoresPerSocket)
	}
	if iters < 1 {
		return nil, fmt.Errorf("kernels: need at least one iteration")
	}
	out := make([]ScalabilityPoint, 0, maxProcs)
	for procs := 1; procs <= maxProcs; procs++ {
		progs := make([]cluster.Program, procs)
		for r := range progs {
			progs[r] = cluster.Program{
				Body:  []cluster.Instr{cluster.Compute{Seconds: k.CoreSeconds, Bytes: k.Bytes}},
				Iters: iters,
			}
		}
		engine, err := cluster.NewSim(mc, progs, cluster.Options{})
		if err != nil {
			return nil, err
		}
		res, err := engine.Run()
		if err != nil {
			return nil, err
		}
		bw := res.AggregateBandwidth(0)
		out = append(out, ScalabilityPoint{
			Processes:    procs,
			BandwidthMBs: bw / 1e6,
			TimePerSweep: res.Makespan / float64(iters),
		})
	}
	return out, nil
}

// SaturationPoint returns the smallest process count whose aggregate
// bandwidth is within frac (e.g. 0.95) of the curve's maximum, or 0 when
// the curve never flattens (scalable kernel).
func SaturationPoint(points []ScalabilityPoint, frac float64) int {
	if len(points) == 0 {
		return 0
	}
	max := points[0].BandwidthMBs
	for _, p := range points {
		if p.BandwidthMBs > max {
			max = p.BandwidthMBs
		}
	}
	last := points[len(points)-1].BandwidthMBs
	if last < 0.9*max || max <= 0 {
		return 0
	}
	// Scalable kernels keep growing linearly: detect via last/first ratio.
	first := points[0].BandwidthMBs
	if first > 0 && last/first > 0.9*float64(points[len(points)-1].Processes) {
		return 0
	}
	for _, p := range points {
		if p.BandwidthMBs >= frac*max {
			return p.Processes
		}
	}
	return 0
}
