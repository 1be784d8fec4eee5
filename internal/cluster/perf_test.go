package cluster

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// engineAllocs returns the average allocation count of one full
// simulation (construction + run) of the given iteration count.
func engineAllocs(t *testing.T, iters int, msgBytes float64) float64 {
	t.Helper()
	tp, err := topology.NextNeighbor(16, true)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := BulkSynchronous(tp, Workload{Seconds: 1e-3, Bytes: 1e6}, msgBytes, iters)
	if err != nil {
		t.Fatal(err)
	}
	mc := Meggie(2)
	var runErr error
	// Take the minimum over a few measurements: one-off runtime-internal
	// allocations (lazily grown size classes, GC bookkeeping) otherwise
	// show up as spurious ±1 noise on an exact comparison.
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		allocs := testing.AllocsPerRun(5, func() {
			engine, err := NewSim(mc, progs, Options{})
			if err != nil {
				runErr = err
				return
			}
			if _, err := engine.Run(); err != nil {
				runErr = err
			}
		})
		if allocs < best {
			best = allocs
		}
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return best
}

// TestEngineSteadyStateZeroAllocs asserts the pooled event engine's
// performance invariant: once warm (event heap at peak size, request and
// task free lists populated, trace storage reserved), additional
// iterations allocate nothing. It measures two runs that differ only in
// iteration count; the difference is the cost of the extra iterations.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		msgBytes float64
	}{
		{"eager", 1024},
		{"rendezvous", 1 << 20}, // above the 16 KiB eager threshold
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := engineAllocs(t, 50, tc.msgBytes)
			long := engineAllocs(t, 100, tc.msgBytes)
			perIter := (long - base) / 50
			if perIter != 0 {
				t.Fatalf("cluster engine allocates %v objects per iteration in steady state "+
					"(50 iters: %v allocs, 100 iters: %v allocs), want 0", perIter, base, long)
			}
		})
	}
}
