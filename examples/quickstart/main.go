// Quickstart: build a 24-process oscillator model, disturb one process,
// and watch the idle wave ripple through and the system resynchronize —
// the core phenomenon of the paper in ~40 lines of API use.
//
// Where to go next: examples/README.md indexes every example (what it
// demonstrates, expected runtime), and SCENARIOS.md documents the JSON
// configs under examples/scenarios/ that drive the same experiments
// declaratively through cmd/pomsim.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/viz"
	"repro/pom"
)

func main() {
	log.SetFlags(0)

	// A resource-scalable program: 24 ranks, next-neighbor communication,
	// tanh potential (Eq. 3), one compute-communicate cycle per time unit.
	cfg := pom.Scalable(24)

	// Disturb rank 5 at t = 10 for 2 periods — the paper's one-off delay.
	cfg.LocalNoise = pom.OneOffDelay(5, 10, 2, 1)

	model, err := pom.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := model.Run(100, 501)
	if err != nil {
		log.Fatal(err)
	}

	// The run keeps its rows for the phase strip; replay them once
	// through the idle-wave and resynchronization sinks.
	detector, err := core.NewWaveDetector(model, 5, 10, 0.15)
	if err != nil {
		log.Fatal(err)
	}
	resync := &sim.ResyncDetector{Eps: 0.1}
	sim.Replay(sim.Tee(detector, resync), res.Ts, res.Theta)

	wave, err := detector.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("idle wave: %.2f ranks/period (R² = %.2f), reached %d of 24 ranks\n",
		wave.SpeedRanksPerPeriod, wave.R2, wave.Reached)

	if t, err := resync.ResyncTime(); err == nil {
		fmt.Printf("system resynchronized at t = %.1f periods\n", t)
	} else {
		fmt.Println("system did not resynchronize")
	}

	fmt.Println("\nphase strip (one row per sampled time, digits = lag):")
	fmt.Print(viz.PhaseStrip(res.NormalizedPhases(), 24))
}
