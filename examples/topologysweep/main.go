// Topologysweep: explore how the communication stencil and the coupling
// strength βκ set the idle-wave propagation speed (paper §5.1.1) — the
// kind of parameter-space exploration the MATLAB GUI is built for, as a
// scriptable program.
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
	const n = 32

	fmt.Println("Idle-wave speed vs coupling (tanh potential, ±1 ring):")
	var rows [][]string
	for _, bk := range []float64{0.5, 1, 2, 4, 8} {
		tp, err := pom.NextNeighbor(n, true)
		if err != nil {
			log.Fatal(err)
		}
		cfg := pom.Scalable(n)
		cfg.Topology = tp
		cfg.CouplingOverride = bk // v_p = βκ / period with period 1
		cfg.LocalNoise = pom.OneOffDelay(n/2, 10, 2, 1)
		model, err := pom.NewModel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		wf, err := measureWave(model, n/2)
		if err != nil {
			rows = append(rows, [][]string{{fmt.Sprintf("%g", bk), "no wave", "-"}}...)
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%g", bk),
			fmt.Sprintf("%.3f", wf.SpeedRanksPerPeriod),
			fmt.Sprintf("%.2f", wf.R2),
		})
	}
	fmt.Print(viz.Table([]string{"βκ", "speed [ranks/period]", "R²"}, rows))

	fmt.Println("\nStencil comparison at fixed protocol (eager, separate waits):")
	rows = rows[:0]
	for _, tc := range []struct {
		label   string
		offsets []int
	}{
		{"d=±1", []int{-1, 1}},
		{"d=±1,−2", []int{-2, -1, 1}},
		{"d=±1,±2", []int{-2, -1, 1, 2}},
	} {
		tp, err := pom.Stencil(n, tc.offsets, true)
		if err != nil {
			log.Fatal(err)
		}
		cfg := pom.Scalable(n)
		cfg.Topology = tp
		cfg.LocalNoise = pom.OneOffDelay(n/2, 10, 2, 1)
		model, err := pom.NewModel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		wf, err := measureWave(model, n/2)
		if err != nil {
			log.Fatal(err)
		}
		// κ = Σ|d| under separate waits; βκ = coupling with β = 1.
		rows = append(rows, []string{
			tc.label,
			fmt.Sprintf("%.0f", model.Vp()),
			fmt.Sprintf("%.3f", wf.SpeedRanksPerPeriod),
		})
	}
	fmt.Print(viz.Table([]string{"stencil", "βκ", "speed [ranks/period]"}, rows))
	fmt.Println("\nLarger βκ — via protocol, wait mode, or stencil reach — makes the")
	fmt.Println("system stiffer and the idle wave faster, §5.1.1.")
}

// measureWave runs the model for 120 periods and streams the rows into
// an idle-wave detector for the delay at rank origin, t = 10. A failed
// run is fatal; the error returned is the detector's.
func measureWave(model *pom.Model, origin int) (pom.WaveFront, error) {
	detector, err := core.NewWaveDetector(model, origin, 10, 0.15)
	if err != nil {
		return pom.WaveFront{}, err
	}
	if _, err := sim.RunStream(model, 120, 1201, detector); err != nil {
		log.Fatal(err)
	}
	return detector.Finish()
}
