package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// randomMatchedPrograms builds a random but deadlock-free program set:
// a random symmetric stencil, random compute workloads, random message
// sizes spanning the eager/rendezvous boundary.
func randomMatchedPrograms(rng *stats.RNG) ([]Program, *topology.Topology) {
	n := 4 + rng.Intn(12)
	offsets := []int{-1, 1}
	if rng.Float64() < 0.4 && n > 5 {
		offsets = append(offsets, -2, 2)
	}
	tp, err := topology.Stencil(n, offsets, rng.Float64() < 0.5)
	if err != nil {
		panic(err)
	}
	msg := float64(int64(64) << rng.Intn(12)) // 64 B … 128 KiB: crosses the eager cutoff
	work := Workload{
		Seconds: 1e-4 + rng.Float64()*1e-3,
		Bytes:   rng.Float64() * 2e7,
	}
	iters := 5 + rng.Intn(20)
	progs, err := BulkSynchronous(tp, work, msg, iters)
	if err != nil {
		panic(err)
	}
	return progs, tp
}

// TestPropertyRandomProgramsComplete fuzzes the engine: every random
// matched bulk-synchronous program must complete without deadlock, with a
// structurally valid trace and all iterations accounted for.
func TestPropertyRandomProgramsComplete(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		progs, _ := randomMatchedPrograms(rng)
		opts := Options{}
		if rng.Float64() < 0.5 {
			opts.Delays = []DelayInjection{{
				Rank:  rng.Intn(len(progs)),
				Iter:  rng.Intn(progs[0].Iters),
				Extra: rng.Float64() * 0.01,
			}}
		}
		engine, err := NewSim(testMachine(), progs, opts)
		if err != nil {
			t.Logf("seed %d: NewSim: %v", seed, err)
			return false
		}
		res, err := engine.Run()
		if err != nil {
			t.Logf("seed %d: Run: %v", seed, err)
			return false
		}
		if err := res.Trace.Validate(); err != nil {
			t.Logf("seed %d: trace invalid: %v", seed, err)
			return false
		}
		for r := range progs {
			if len(res.Trace.IterEnds[r]) != progs[r].Iters {
				t.Logf("seed %d: rank %d finished %d of %d iterations",
					seed, r, len(res.Trace.IterEnds[r]), progs[r].Iters)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyMakespanLowerBound: the makespan can never beat the serial
// compute time of the busiest rank at full speed.
func TestPropertyMakespanLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		progs, _ := randomMatchedPrograms(rng)
		engine, err := NewSim(testMachine(), progs, Options{})
		if err != nil {
			return false
		}
		res, err := engine.Run()
		if err != nil {
			return false
		}
		var maxSerial float64
		for _, p := range progs {
			var per float64
			for _, in := range p.Body {
				if c, ok := in.(Compute); ok {
					per += c.Seconds
				}
			}
			if s := per * float64(p.Iters); s > maxSerial {
				maxSerial = s
			}
		}
		return res.Makespan >= maxSerial-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertySocketBytesConservation: the bytes a socket processes must
// equal the total memory traffic of the ranks placed on it.
func TestPropertySocketBytesConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		progs, _ := randomMatchedPrograms(rng)
		mc := testMachine()
		engine, err := NewSim(mc, progs, Options{})
		if err != nil {
			return false
		}
		res, err := engine.Run()
		if err != nil {
			return false
		}
		want := make([]float64, mc.Sockets)
		for r, p := range progs {
			var per float64
			for _, in := range p.Body {
				if c, ok := in.(Compute); ok {
					per += c.Bytes
				}
			}
			want[mc.SocketOf(r)] += per * float64(p.Iters)
		}
		for s := range want {
			if math.Abs(res.SocketBytes[s]-want[s]) > 1e-3*math.Max(want[s], 1) {
				t.Logf("seed %d: socket %d bytes %v, want %v",
					seed, s, res.SocketBytes[s], want[s])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDelayMonotone: in a contention-free (compute-bound) program
// injecting a delay can only increase the makespan. The restriction is
// essential — on a bandwidth-saturated socket a delay can desynchronize
// the compute phases, reduce contention, and *shorten* the run: the
// bottleneck-evasion effect of Afzal et al. (TPDS 2022), demonstrated in
// TestDelayCanImproveBottleneckedRun below.
func TestPropertyDelayMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		progs, _ := randomMatchedPrograms(rng)
		for r := range progs {
			for i, in := range progs[r].Body {
				if c, ok := in.(Compute); ok {
					c.Bytes = 0 // contention-free
					progs[r].Body[i] = c
				}
			}
		}
		run := func(opts Options) float64 {
			engine, err := NewSim(testMachine(), progs, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res.Makespan
		}
		base := run(Options{})
		delayed := run(Options{Delays: []DelayInjection{{
			Rank:  rng.Intn(len(progs)),
			Iter:  rng.Intn(progs[0].Iters),
			Extra: 0.005,
		}}})
		return delayed >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTraceCoversMakespan: every rank's spans must end at (or
// before) the makespan and the state timeline must account for nearly the
// whole run (compute + comm ≈ finish time of that rank).
func TestPropertyTraceCoversMakespan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		progs, _ := randomMatchedPrograms(rng)
		engine, err := NewSim(testMachine(), progs, Options{})
		if err != nil {
			return false
		}
		res, err := engine.Run()
		if err != nil {
			return false
		}
		for r := range progs {
			spans := res.Trace.Spans[r]
			if len(spans) == 0 {
				return false
			}
			last := spans[len(spans)-1].End
			if last > res.Makespan+1e-9 {
				t.Logf("seed %d: rank %d spans exceed makespan", seed, r)
				return false
			}
			busy := res.Trace.TimeInState(r, trace.SpanCompute) +
				res.Trace.TimeInState(r, trace.SpanComm)
			// The timeline may have small gaps at instruction boundaries
			// but must cover the rank's active time within 1%.
			if busy > last+1e-9 || busy < 0.99*last-1e-9 {
				t.Logf("seed %d: rank %d busy %v of %v", seed, r, busy, last)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDelayCanImproveBottleneckedRun documents the bottleneck-evasion
// effect that makes the naive delay-monotonicity property false on
// saturated sockets: the fuzzer found seeds where an injected delay
// desynchronizes the compute phases, lowers the bandwidth contention, and
// finishes the run *earlier*. This is the paper's central motivation for
// the desynchronizing potential (and the subject of its companion paper
// "Making applications faster by asynchronous execution").
func TestDelayCanImproveBottleneckedRun(t *testing.T) {
	// The seed below reproduces the effect found by quick.Check.
	rng := stats.NewRNG(0x830fe623e56bfa9f)
	progs, _ := randomMatchedPrograms(rng)
	run := func(opts Options) float64 {
		engine, err := NewSim(testMachine(), progs, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	base := run(Options{})
	delayed := run(Options{Delays: []DelayInjection{{
		Rank:  rng.Intn(len(progs)),
		Iter:  rng.Intn(progs[0].Iters),
		Extra: 0.005,
	}}})
	if delayed >= base {
		t.Skipf("bottleneck evasion not reproduced on this configuration (base %v, delayed %v)",
			base, delayed)
	}
	t.Logf("bottleneck evasion: delay shortened the run %.6fs -> %.6fs", base, delayed)
}
