package kernels

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// measureUpwardWave injects a delay near the low end of a chain so the
// two-sided fit is dominated by the upward-traveling branch, and returns
// the fitted speed in ranks/iteration.
func measureUpwardWave(t *testing.T, offsets []int, msgBytes float64) float64 {
	t.Helper()
	const n = 36
	const iters = 240
	const origin = 2
	const delayIter = 40
	tp, err := topology.Stencil(n, offsets, false)
	if err != nil {
		t.Fatal(err)
	}
	k := Pisolver()
	progs, err := cluster.BulkSynchronous(tp, k.Workload(), msgBytes, iters)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := cluster.NewSim(cluster.Meggie((n+9)/10), progs, cluster.Options{
		Delays: []cluster.DelayInjection{{Rank: origin, Iter: delayIter, Extra: 10 * k.CoreSeconds}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	iterDur := tr.MeanIterationTime(0)
	tDelay := tr.IterEnds[origin][delayIter-1]
	wm, err := tr.MeasureIdleWave(origin, tDelay, 0.5*iterDur, iterDur, false)
	if err != nil {
		t.Fatal(err)
	}
	return wm.SpeedRanksPerIter
}

// TestAnalyticWaveSpeedPrediction validates the WaveSpeeds predictor
// against the discrete-event simulator for three stencils.
func TestAnalyticWaveSpeedPrediction(t *testing.T) {
	cases := []struct {
		offsets []int
	}{
		{[]int{-1, 1}},
		{[]int{-2, -1, 1}},
		{[]int{-3, -1, 1}},
	}
	for _, c := range cases {
		tp, err := topology.Stencil(36, c.offsets, false)
		if err != nil {
			t.Fatal(err)
		}
		up, _ := tp.WaveSpeeds(topology.Eager)
		got := measureUpwardWave(t, c.offsets, 1024)
		if math.Abs(got-up)/up > 0.2 {
			t.Errorf("stencil %v: DES speed %.2f, analytic %.0f ranks/iter",
				c.offsets, got, up)
		}
	}
}

func TestWaveSpeedsPredictor(t *testing.T) {
	tp, _ := topology.Stencil(10, []int{-2, -1, 1}, true)
	up, down := tp.WaveSpeeds(topology.Eager)
	if up != 2 || down != 1 {
		t.Errorf("eager speeds = %v/%v, want 2/1", up, down)
	}
	up, down = tp.WaveSpeeds(topology.Rendezvous)
	if up != 2 || down != 2 {
		t.Errorf("rendezvous speeds = %v/%v, want 2/2", up, down)
	}
	one, _ := topology.Stencil(10, []int{1}, true)
	up, down = one.WaveSpeeds(topology.Eager)
	if up != 0 || down != 1 {
		t.Errorf("one-sided eager speeds = %v/%v, want 0/1", up, down)
	}
	up, down = one.WaveSpeeds(topology.Rendezvous)
	if up != 1 || down != 1 {
		t.Errorf("one-sided rendezvous speeds = %v/%v, want 1/1", up, down)
	}
}
