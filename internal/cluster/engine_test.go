package cluster

import (
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
)

// testMachine is a small deterministic machine: 4 sockets × 4 cores,
// 10 GB/s sockets, fast network.
func testMachine() MachineConfig {
	return MachineConfig{
		Name:            "test",
		Sockets:         4,
		CoresPerSocket:  4,
		SocketBandwidth: 10e9,
		NetLatency:      1e-6,
		NetBandwidth:    10e9,
		EagerThreshold:  16384,
		SendOverhead:    1e-7,
	}
}

func TestValidation(t *testing.T) {
	mc := testMachine()
	if _, err := NewSim(mc, nil, Options{}); err == nil {
		t.Error("want error for no programs")
	}
	progs := make([]Program, 99)
	if _, err := NewSim(mc, progs, Options{}); err == nil {
		t.Error("want error for too many ranks")
	}
	if _, err := NewSim(mc, []Program{{}}, Options{}); err == nil {
		t.Error("want error for empty program")
	}
	bad := mc
	bad.SocketBandwidth = 0
	if _, err := NewSim(bad, []Program{{Body: []Instr{Compute{Seconds: 1}}, Iters: 1}}, Options{}); err == nil {
		t.Error("want machine validation error")
	}
	if _, err := NewSim(mc, []Program{{Body: []Instr{Compute{Seconds: 1}}, Iters: 1}},
		Options{Delays: []DelayInjection{{Rank: 5}}}); err == nil {
		t.Error("want delay rank range error")
	}
	for _, iter := range []int{-1, 3} {
		if _, err := NewSim(mc, []Program{{Body: []Instr{Compute{Seconds: 1}}, Iters: 3}},
			Options{Delays: []DelayInjection{{Rank: 0, Iter: iter}}}); err == nil {
			t.Errorf("delay iteration %d of 3: want range error", iter)
		}
	}
}

func TestSingleRankComputeOnly(t *testing.T) {
	progs := []Program{{
		Body:  []Instr{Compute{Seconds: 0.5, Bytes: 1e9}},
		Iters: 4,
	}}
	engine, err := NewSim(testMachine(), progs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 1e9 bytes / 0.5s = 2 GB/s demand < 10 GB/s socket: never throttled.
	if math.Abs(res.Makespan-2.0) > 1e-9 {
		t.Errorf("makespan = %v, want 2.0", res.Makespan)
	}
	if len(res.Trace.IterEnds[0]) != 4 {
		t.Errorf("iterations recorded = %d", len(res.Trace.IterEnds[0]))
	}
	if got := res.Trace.TimeInState(0, trace.SpanCompute); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("compute time = %v", got)
	}
	if math.Abs(res.SocketBytes[0]-4e9) > 1 {
		t.Errorf("socket bytes = %v", res.SocketBytes[0])
	}
}

func TestBandwidthSaturationSharing(t *testing.T) {
	// Two ranks on one socket, each demanding 8 GB/s on a 10 GB/s socket:
	// fair share 5 GB/s each → rate 5/8 → duration 1.6× nominal.
	progs := make([]Program, 2)
	for r := range progs {
		progs[r] = Program{
			Body:  []Instr{Compute{Seconds: 1, Bytes: 8e9}},
			Iters: 1,
		}
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 8.0 / 5.0
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	// Aggregate bandwidth must equal the socket limit.
	if bw := res.AggregateBandwidth(0); math.Abs(bw-10e9) > 1e6 {
		t.Errorf("aggregate bandwidth = %v, want 10 GB/s", bw)
	}
}

func TestMaxMinFairnessMixedDemands(t *testing.T) {
	// One light task (1 GB/s) and one heavy task (20 GB/s) on 10 GB/s:
	// light runs at full speed, heavy gets 9 GB/s → rate 0.45.
	progs := []Program{
		{Body: []Instr{Compute{Seconds: 1, Bytes: 1e9}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 1, Bytes: 20e9}}, Iters: 1},
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Light task finishes at t=1. After that the heavy task has the socket
	// to itself but its demand still exceeds 10 GB/s → rate 0.5.
	// Heavy progress in [0,1]: rate 9/20 = 0.45 → 0.55 work left → 1.1 s.
	want := 1 + 0.55/0.5
	if math.Abs(res.Makespan-want) > 1e-6 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

func TestSocketsAreIndependent(t *testing.T) {
	// Ranks 0..3 on socket 0, rank 4 alone on socket 1: rank 4 must be
	// unaffected by socket 0's saturation.
	progs := make([]Program, 5)
	for r := range progs {
		progs[r] = Program{
			Body:  []Instr{Compute{Seconds: 1, Bytes: 8e9}},
			Iters: 1,
		}
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Rank 4's span must be exactly 1 s.
	spans := res.Trace.Spans[4]
	if len(spans) != 1 || math.Abs(spans[0].Duration()-1) > 1e-9 {
		t.Errorf("lone-socket rank spans = %v", spans)
	}
	// Socket 0 with 4×8 GB/s demand on 10 GB/s: 3.2× stretch.
	if math.Abs(res.Makespan-3.2) > 1e-6 {
		t.Errorf("makespan = %v, want 3.2", res.Makespan)
	}
}

func TestEagerMessagePingPong(t *testing.T) {
	// Rank 0 sends to rank 1; both compute briefly first.
	progs := []Program{
		{Body: []Instr{Compute{Seconds: 0.1, Bytes: 0}, Send{To: 1, Bytes: 1024}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 0.1, Bytes: 0}, Irecv{From: 0, Bytes: 1024}, Waitall{}}, Iters: 1},
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	mc := testMachine()
	wantArrival := 0.1 + mc.SendOverhead + 0 // sender done after overhead
	_ = wantArrival
	// Receiver completes at compute end + transfer (latency + size/bw)
	// since the message was sent at t=0.1.
	wantEnd := 0.1 + mc.NetLatency + 1024/mc.NetBandwidth
	if math.Abs(res.Makespan-wantEnd) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, wantEnd)
	}
}

func TestEagerUnexpectedMessage(t *testing.T) {
	// Sender fires before the receiver posts: the payload waits in the
	// unexpected queue and the late Irecv completes instantly.
	progs := []Program{
		{Body: []Instr{Send{To: 1, Bytes: 512}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 0.5, Bytes: 0}, Irecv{From: 0, Bytes: 512}, Waitall{}}, Iters: 1},
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-0.5) > 1e-6 {
		t.Errorf("makespan = %v, want 0.5 (no extra wait)", res.Makespan)
	}
}

func TestRendezvousBlocksUntilRecv(t *testing.T) {
	mc := testMachine()
	big := mc.EagerThreshold * 4
	progs := []Program{
		{Body: []Instr{Send{To: 1, Bytes: big}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 1, Bytes: 0}, Irecv{From: 0, Bytes: big}, Waitall{}}, Iters: 1},
	}
	engine, _ := NewSim(mc, progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Sender blocks from t=0 until the recv posts at t=1, then transfers.
	want := 1 + mc.NetLatency + big/mc.NetBandwidth
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	// Sender's comm span must cover the whole blocking interval.
	if got := res.Trace.TimeInState(0, trace.SpanComm); math.Abs(got-want) > 1e-9 {
		t.Errorf("sender comm time = %v, want %v", got, want)
	}
}

func TestRendezvousRecvFirst(t *testing.T) {
	mc := testMachine()
	big := mc.EagerThreshold * 4
	progs := []Program{
		{Body: []Instr{Compute{Seconds: 1, Bytes: 0}, Send{To: 1, Bytes: big}}, Iters: 1},
		{Body: []Instr{Irecv{From: 0, Bytes: big}, Waitall{}}, Iters: 1},
	}
	engine, _ := NewSim(mc, progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + mc.NetLatency + big/mc.NetBandwidth
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	progs := []Program{
		{Body: []Instr{Compute{Seconds: 0.2, Bytes: 0}, Barrier{}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 1.0, Bytes: 0}, Barrier{}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 0.1, Bytes: 0}, Barrier{}}, Iters: 1},
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + testMachine().NetLatency
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	// The fast ranks waited in comm state.
	if w := res.Trace.TimeInState(2, trace.SpanComm); w < 0.8 {
		t.Errorf("rank 2 wait = %v, want ≈ 0.9", w)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A receive with no matching send must be reported, not hang.
	progs := []Program{
		{Body: []Instr{Irecv{From: 1, Bytes: 8}, Waitall{}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 0.1, Bytes: 0}}, Iters: 1},
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	if _, err := engine.Run(); err == nil {
		t.Fatal("want deadlock error")
	}
}

func TestDelayInjectionStretchesOneIteration(t *testing.T) {
	progs := []Program{{
		Body:  []Instr{Compute{Seconds: 0.1, Bytes: 0}},
		Iters: 10,
	}}
	engine, _ := NewSim(testMachine(), progs, Options{
		Delays: []DelayInjection{{Rank: 0, Iter: 5, Extra: 1}},
	})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-2.0) > 1e-9 {
		t.Errorf("makespan = %v, want 2.0 (10×0.1 + 1)", res.Makespan)
	}
}

func TestComputeNoiseHook(t *testing.T) {
	progs := []Program{{
		Body:  []Instr{Compute{Seconds: 0.1, Bytes: 0}},
		Iters: 4,
	}}
	engine, _ := NewSim(testMachine(), progs, Options{
		ComputeNoise: func(rank, iter int) float64 { return 0.05 },
	})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-0.6) > 1e-9 {
		t.Errorf("makespan = %v, want 0.6", res.Makespan)
	}
}

func TestBulkSynchronousRoundTrip(t *testing.T) {
	// A full bulk-synchronous run on a ring: no deadlock, every rank
	// completes all iterations, trace validates.
	tp, err := topology.NextNeighbor(8, true)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := BulkSynchronous(tp, Workload{Seconds: 1e-3, Bytes: 0}, 1024, 20)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewSim(testMachine(), progs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if got := len(res.Trace.IterEnds[r]); got != 20 {
			t.Errorf("rank %d iterations = %d, want 20", r, got)
		}
	}
	if err := res.Trace.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBulkSynchronousAsymmetricStencil(t *testing.T) {
	// d = −2, −1, +1 must produce matched sends/recvs (no deadlock).
	tp, err := topology.NextPlusNextNext(10, true)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := BulkSynchronous(tp, Workload{Seconds: 1e-3, Bytes: 0}, 512, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank posts 3 recvs; sends must also number 3 per rank
	// (reverse neighbors of the ring stencil).
	for r, p := range progs {
		sends, recvs := 0, 0
		for _, in := range p.Body {
			switch in.(type) {
			case Send:
				sends++
			case Irecv:
				recvs++
			}
		}
		if sends != 3 || recvs != 3 {
			t.Errorf("rank %d: %d sends, %d recvs, want 3/3", r, sends, recvs)
		}
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	if _, err := engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		tp, _ := topology.NextNeighbor(12, true)
		progs, _ := BulkSynchronous(tp, Workload{Seconds: 2e-3, Bytes: 1e7}, 1024, 30)
		engine, _ := NewSim(testMachine(), progs, Options{
			Delays: []DelayInjection{{Rank: 3, Iter: 10, Extra: 0.05}},
		})
		res, err := engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if run() != run() {
		t.Error("simulation is not deterministic")
	}
}

func TestBulkSynchronousValidation(t *testing.T) {
	tp, _ := topology.NextNeighbor(4, true)
	if _, err := BulkSynchronous(tp, Workload{Seconds: 1}, 8, 0); err == nil {
		t.Error("want error for zero iterations")
	}
	if _, err := BulkSynchronous(tp, Workload{Seconds: 0}, 8, 5); err == nil {
		t.Error("want error for zero compute time")
	}
}
