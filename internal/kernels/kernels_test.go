package kernels

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

// demandBandwidth is the kernel's standalone per-core bandwidth draw
// (bytes/s): Bytes divided by the standalone sweep duration, which is
// CoreSeconds because the cluster model stretches compute phases only
// through bandwidth sharing.
func demandBandwidth(k Kernel) float64 {
	d := k.CoreSeconds
	if d <= 0 {
		return 0
	}
	return k.Bytes / d
}

func TestKernelCalibration(t *testing.T) {
	s := STREAM()
	if bw := demandBandwidth(s); math.Abs(bw-13e9)/13e9 > 1e-9 {
		t.Errorf("STREAM demand = %v, want 13 GB/s", bw)
	}
	sch := Schoenauer()
	if bw := demandBandwidth(sch); math.Abs(bw-7.5e9)/7.5e9 > 1e-9 {
		t.Errorf("Schoenauer demand = %v, want 7.5 GB/s", bw)
	}
	pi := Pisolver()
	if bw := demandBandwidth(pi); bw > 1e6 {
		t.Errorf("PISOLVER demand = %v, want negligible", bw)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"STREAM", "stream", "schoenauer", "pisolver"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("want error for unknown kernel")
	}
	if len(All()) != 3 {
		t.Error("All must return the three paper kernels")
	}
}

func TestSTREAMSaturatesEarly(t *testing.T) {
	pts, err := SocketScalability(cluster.Meggie(1), STREAM(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	// Single core: ~13 GB/s; plateau at the 53 GB/s socket limit.
	if math.Abs(pts[0].BandwidthMBs-13000) > 200 {
		t.Errorf("1-core bandwidth = %v MB/s, want ≈ 13000", pts[0].BandwidthMBs)
	}
	if math.Abs(pts[9].BandwidthMBs-53000) > 1500 {
		t.Errorf("10-core bandwidth = %v MB/s, want ≈ 53000", pts[9].BandwidthMBs)
	}
	// Saturation by ≈ 4-5 cores (Fig. 1b shape).
	sat := SaturationPoint(pts, 0.95)
	if sat < 4 || sat > 5 {
		t.Errorf("STREAM saturation at %d cores, want 4-5", sat)
	}
}

func TestSchoenauerSaturatesLater(t *testing.T) {
	pts, err := SocketScalability(cluster.Meggie(1), Schoenauer(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	satStream := SaturationPoint(mustPoints(t, STREAM()), 0.95)
	satSch := SaturationPoint(pts, 0.95)
	if satSch <= satStream {
		t.Errorf("Schoenauer saturates at %d, STREAM at %d — paper wants later", satSch, satStream)
	}
	if satSch < 7 || satSch > 8 {
		t.Errorf("Schoenauer saturation at %d cores, want 7-8", satSch)
	}
}

func TestPisolverScalesLinearly(t *testing.T) {
	pts, err := SocketScalability(cluster.Meggie(1), Pisolver(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep time must not grow with core count (no bottleneck).
	for _, p := range pts {
		if math.Abs(p.TimePerSweep-pts[0].TimePerSweep)/pts[0].TimePerSweep > 1e-6 {
			t.Errorf("PISOLVER sweep time at %d cores = %v, want constant %v",
				p.Processes, p.TimePerSweep, pts[0].TimePerSweep)
		}
	}
	if sat := SaturationPoint(pts, 0.95); sat != 0 {
		t.Errorf("PISOLVER reported saturation at %d, want none", sat)
	}
}

func mustPoints(t *testing.T, k Kernel) []ScalabilityPoint {
	t.Helper()
	pts, err := SocketScalability(cluster.Meggie(1), k, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestSocketScalabilityValidation(t *testing.T) {
	if _, err := SocketScalability(cluster.Meggie(1), STREAM(), 0, 3); err == nil {
		t.Error("want error for maxProcs < 1")
	}
	if _, err := SocketScalability(cluster.Meggie(1), STREAM(), 99, 3); err == nil {
		t.Error("want error for maxProcs > cores")
	}
	if _, err := SocketScalability(cluster.Meggie(1), STREAM(), 4, 0); err == nil {
		t.Error("want error for iters < 1")
	}
}

func TestSaturationPointEdgeCases(t *testing.T) {
	if SaturationPoint(nil, 0.95) != 0 {
		t.Error("empty curve must have no saturation")
	}
}

func TestMachinePresets(t *testing.T) {
	m := cluster.Meggie(4)
	if err := m.Validate(); err != nil {
		t.Errorf("Meggie preset invalid: %v", err)
	}
	if m.CoresPerSocket != 10 {
		t.Error("Meggie is a 10-core Broadwell")
	}
	sng := cluster.SuperMUCNG(2)
	if err := sng.Validate(); err != nil {
		t.Errorf("SuperMUC-NG preset invalid: %v", err)
	}
	if sng.CoresPerSocket != 24 {
		t.Error("SuperMUC-NG is a 24-core Skylake")
	}
}

// TestPlacementAblation: spreading memory-bound ranks round-robin across
// sockets doubles the available bandwidth relative to block placement —
// the placement lever for the Fig. 1(b) bottleneck.
func TestPlacementAblation(t *testing.T) {
	k := STREAM()
	run := func(p cluster.Placement) float64 {
		mc := cluster.Meggie(2)
		mc.Placement = p
		progs := make([]cluster.Program, 10)
		for r := range progs {
			progs[r] = cluster.Program{
				Body:  []cluster.Instr{cluster.Compute{Seconds: k.CoreSeconds, Bytes: k.Bytes}},
				Iters: 3,
			}
		}
		engine, err := cluster.NewSim(mc, progs, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	block := run(cluster.Block)   // 10 ranks on socket 0: 53 GB/s total
	rr := run(cluster.RoundRobin) // 5+5: 106 GB/s total
	speedup := block / rr
	if speedup < 1.8 || speedup > 2.2 {
		t.Errorf("round-robin speedup = %.2f, want ≈ 2 (bandwidth doubling)", speedup)
	}
}
