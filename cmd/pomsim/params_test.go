package main

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// TestArchiveParams pins the params vector layout an archived run records
// for every family: the resolved [dim, t_end, samples] run controls, then
// the family's physical parameters. A spec that omits t_end records the
// run length the family resolved, not the zero it was written with.
func TestArchiveParams(t *testing.T) {
	pomNoTEnd := &scenario.Spec{
		N: 8, TComp: 0.8, TComm: 0.2,
		Potential: scenario.PotentialSpec{Kind: "tanh"},
		Offsets:   []int{-1, 1},
		Samples:   11,
	}
	pomDesync := scenario.Fig2Panel([]int{-1, 1}, false, 1.5)
	pomDesync.N, pomDesync.TEnd, pomDesync.Samples = 12, 60, 121

	torus := scenario.Torus2DScenario(3, 4, 1.2)
	torus.TEnd = 30

	linstab := scenario.LinstabScenario(8, 1.5)
	linstab.Linstab.Points = 5

	cluster := scenario.ClusterScenario(8, 20)
	cluster.TEnd = 5

	cases := []struct {
		name string
		spec *scenario.Spec
		want []float64
	}{
		{"pom without t_end", pomNoTEnd, []float64{8, 150, 11, 0}},
		{"pom desync", pomDesync, []float64{12, 60, 121, 1.5}},
		{"kuramoto", scenario.KuramotoScenario(8, 1.5, 3), []float64{8, 40, 201, 1.5, 0, 1, 3}},
		{"continuum", scenario.ContinuumScenario(16, 2, scenario.PotentialSpec{Kind: "desync", Sigma: 1.2}),
			[]float64{16, 40, 201, 2, 1, 1.2}},
		{"torus2d", torus, []float64{12, 30, 601, 3, 4, 1, 1.2}},
		{"linstab", linstab, []float64{3, 1, 201, 0, 1.5, 5, 0, 1, 0, 1.5}},
		{"cluster", cluster, []float64{8, 5, 601, 8, 20, 1024}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, tEnd, nSamples, err := tc.spec.BuildSystem()
			if err != nil {
				t.Fatal(err)
			}
			if got := archiveParams(tc.spec, sys, tEnd, nSamples); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("params = %v, want %v", got, tc.want)
			}
		})
	}
}
