package pom

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
)

func TestScalableScenarioResyncs(t *testing.T) {
	cfg := Scalable(16)
	cfg.LocalNoise = OneOffDelay(5, 5, 2, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := core.NewWaveDetector(m, 5, 5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	resync := &sim.ResyncDetector{Eps: 0.1}
	if _, err := sim.RunStream(m, 80, 401, sim.Tee(resync, wave)); err != nil {
		t.Fatal(err)
	}
	if _, err := resync.ResyncTime(); err != nil {
		t.Errorf("scalable scenario did not resync: %v", err)
	}
	wf, err := wave.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if wf.Speed <= 0 {
		t.Error("no idle wave")
	}
}

func TestBottleneckedScenarioDesyncs(t *testing.T) {
	sigma := 1.5
	cfg := Bottlenecked(12, sigma)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.RunSummary(m, 300, 601, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * sigma / 3
	for i, g := range sum.Gaps {
		if math.Abs(math.Abs(g)-want) > 0.15 {
			t.Errorf("gap %d = %v, want ±%v", i, g, want)
		}
	}
}

func TestTopologyConstructors(t *testing.T) {
	tp, err := NextNeighbor(8, true)
	if err != nil || tp.T.RowNNZ(0) != 2 {
		t.Errorf("NextNeighbor: %v", err)
	}
	tp, err = Stencil(8, []int{-2, 1}, true)
	if err != nil || tp.T.RowNNZ(0) != 2 {
		t.Errorf("Stencil: %v", err)
	}
}

func TestSimulateMPI(t *testing.T) {
	tp, err := NextNeighbor(20, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateMPI(Meggie(2), tp, kernels.Pisolver(), 100, 5, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	iterDur := tr.MeanIterationTime(0)
	tDelay := tr.IterEnds[5][19]
	wm, err := tr.MeasureIdleWave(5, tDelay, 0.5*iterDur, iterDur, false)
	if err != nil {
		t.Fatal(err)
	}
	if wm.SpeedRanksPerIter < 0.8 || wm.SpeedRanksPerIter > 1.3 {
		t.Errorf("wave speed = %v ranks/iter", wm.SpeedRanksPerIter)
	}
	// Undisturbed run path.
	res2, err := SimulateMPI(Meggie(2), tp, kernels.Pisolver(), 20, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan <= 0 {
		t.Error("empty makespan")
	}
}

func TestMachinePresetsFacade(t *testing.T) {
	if Meggie(4).Cores() != 40 {
		t.Error("Meggie cores")
	}
	if STREAM().Name != "STREAM" {
		t.Error("kernel name")
	}
}
