package sweep

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestRunOrderedResults checks the in-memory collection pattern: a
// reduce that stores result i at slot i of a pre-sized slice returns the
// results in input order whatever order the workers finish in.
func TestRunOrderedResults(t *testing.T) {
	params := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := make([]float64, len(params))
	err := RunReduce(context.Background(), len(params), 4,
		func(i int) float64 { return params[i] },
		func(_ context.Context, p float64) (float64, error) { return p * p, nil },
		func(i int, _ float64, r float64) { got[i] = r })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		if got[i] != p*p {
			t.Errorf("result[%d] = %v, want %v", i, got[i], p*p)
		}
	}
}

// TestRunPanicCancelsRemainingPoints checks a single panicking point
// behaves like an erroring one: the sweep cancels and the error names the
// panic and its point.
func TestRunPanicCancelsRemainingPoints(t *testing.T) {
	err := RunReduce(context.Background(), 32, 2,
		func(i int) int { return i },
		func(ctx context.Context, p int) (int, error) {
			if p == 3 {
				panic("lone panic")
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Millisecond):
			}
			return p * p, nil
		},
		func(int, int, int) {})
	if err == nil || !strings.Contains(err.Error(), "point 3") || !strings.Contains(err.Error(), "lone panic") {
		t.Fatalf("err = %v, want the recovered panic of point 3", err)
	}
}

func TestRunReduceSum(t *testing.T) {
	const n = 100
	var sum int64
	seen := make([]bool, n)
	err := RunReduce(context.Background(), n, 4,
		func(i int) int { return i },
		func(_ context.Context, p int) (int, error) { return p * p, nil },
		func(i int, p, r int) {
			// reduce is serialized: plain writes are safe here.
			if seen[i] {
				t.Errorf("point %d reduced twice", i)
			}
			seen[i] = true
			if r != p*p {
				t.Errorf("point %d: result %d", i, r)
			}
			sum += int64(r)
		})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < n; i++ {
		want += int64(i * i)
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	for i, s := range seen {
		if !s {
			t.Errorf("point %d never reduced", i)
		}
	}
}

func TestRunReduceErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	err := RunReduce(context.Background(), 64, 2,
		func(i int) int { return i },
		func(ctx context.Context, p int) (int, error) {
			if p == 5 {
				return 0, boom
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Millisecond):
			}
			return p, nil
		},
		func(int, int, int) {})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestRunReducePanicCancels(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- RunReduce(context.Background(), 16, 2,
			func(i int) int { return i },
			func(_ context.Context, p int) (int, error) { panic("reduce-mode boom") },
			func(int, int, int) {})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("err = %v, want a surfaced panic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunReduce deadlocked on panicking points")
	}
}

func TestRunReducePanicInReduceCancels(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- RunReduce(context.Background(), 16, 2,
			func(i int) int { return i },
			func(_ context.Context, p int) (int, error) { return p, nil },
			func(int, int, int) { panic("reducer boom") })
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "reduce panicked") {
			t.Fatalf("err = %v, want the surfaced reduce panic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunReduce hung on a panicking reducer")
	}
}

func TestRunReduceValidation(t *testing.T) {
	if err := RunReduce[int, int](context.Background(), 3, 1, nil,
		func(_ context.Context, p int) (int, error) { return p, nil }, nil); err == nil {
		t.Error("want error for nil gen")
	}
	if err := RunReduce[int, int](context.Background(), 3, 1,
		func(i int) int { return i }, nil, nil); err == nil {
		t.Error("want error for nil fn")
	}
	if err := RunReduce(context.Background(), 0, 1,
		func(i int) int { return i },
		func(_ context.Context, p int) (int, error) { return p, nil },
		nil); err != nil {
		t.Errorf("empty sweep: %v", err)
	}
}

func TestGrid1(t *testing.T) {
	g := Grid1(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-15 {
			t.Errorf("g[%d] = %v", i, g[i])
		}
	}
	if len(Grid1(0, 1, 0)) != 0 {
		t.Error("n=0 grid must be empty")
	}
	if g := Grid1(3, 9, 1); len(g) != 1 || g[0] != 3 {
		t.Error("single-point grid")
	}
}

// TestParallelSigmaSweep runs a real model sweep in parallel and checks
// the settled gaps still track 2σ/3 — the concurrency does not perturb
// determinism because each point owns its model.
func TestParallelSigmaSweep(t *testing.T) {
	sigmas := []float64{0.8, 1.2, 1.6, 2.0}
	gaps := make([]float64, len(sigmas))
	err := RunReduce(context.Background(), len(sigmas), 4,
		func(i int) float64 { return sigmas[i] },
		func(_ context.Context, sigma float64) (float64, error) {
			tp, err := topology.NextNeighbor(10, false)
			if err != nil {
				return 0, err
			}
			cfg := core.Config{
				N: 10, TComp: 0.8, TComm: 0.2,
				Potential:   potential.NewDesync(sigma),
				Topology:    tp,
				Init:        core.RandomPhases,
				PerturbSeed: 5,
				PerturbAmp:  0.02,
				LocalNoise:  noise.Delay{Rank: 3, Start: 10, Duration: 1, Extra: 50},
			}
			m, err := core.New(cfg)
			if err != nil {
				return 0, err
			}
			sum, err := sim.RunSummary(m, 300, 301, 0, 0.1)
			if err != nil {
				return 0, err
			}
			return sum.MeanAbsGap, nil
		},
		func(i int, _ float64, gap float64) { gaps[i] = gap })
	if err != nil {
		t.Fatal(err)
	}
	for i, gap := range gaps {
		want := 2 * sigmas[i] / 3
		if math.Abs(gap-want) > 0.15*want {
			t.Errorf("σ=%v: gap %v, want %v", sigmas[i], gap, want)
		}
	}
}
