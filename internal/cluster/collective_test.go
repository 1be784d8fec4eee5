package cluster

import (
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
)

func TestWaitSingleRequest(t *testing.T) {
	// Rank 1 posts two Irecvs and waits them one at a time; the first
	// message arrives late, the second early.
	progs := []Program{
		{Body: []Instr{Compute{Seconds: 1, Bytes: 0}, Send{To: 1, Bytes: 64}}, Iters: 1},
		{Body: []Instr{
			Irecv{From: 0, Bytes: 64},
			Irecv{From: 2, Bytes: 64},
			Wait{}, Wait{},
		}, Iters: 1},
		{Body: []Instr{Send{To: 1, Bytes: 64}}, Iters: 1},
	}
	engine, err := NewSim(testMachine(), progs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 finishes when the slow first message arrives (t ≈ 1).
	want := 1 + testMachine().SendOverhead
	if math.Abs(res.Makespan-want) > 1e-3 {
		t.Errorf("makespan = %v, want ≈ %v", res.Makespan, want)
	}
}

func TestWaitWithNoRequestsIsNoop(t *testing.T) {
	progs := []Program{{
		Body:  []Instr{Compute{Seconds: 0.1, Bytes: 0}, Wait{}},
		Iters: 3,
	}}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-0.3) > 1e-9 {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestSeparateWaitsCompleteBulkSync(t *testing.T) {
	tp, err := topology.NextPlusNextNext(12, true)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := BulkSynchronousWaits(tp, Workload{Seconds: 1e-3}, 256, 15, false)
	if err != nil {
		t.Fatal(err)
	}
	// Body must contain one Wait per Irecv and no Waitall.
	waits, waitalls, recvs := 0, 0, 0
	for _, in := range progs[0].Body {
		switch in.(type) {
		case Wait:
			waits++
		case Waitall:
			waitalls++
		case Irecv:
			recvs++
		}
	}
	if waitalls != 0 || waits != recvs || recvs != 3 {
		t.Fatalf("waits=%d waitalls=%d recvs=%d", waits, waitalls, recvs)
	}
	engine, err := NewSim(testMachine(), progs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		if len(res.Trace.IterEnds[r]) != 15 {
			t.Errorf("rank %d iterations = %d", r, len(res.Trace.IterEnds[r]))
		}
	}
}

func TestAllreduceSynchronizesWithTreeCost(t *testing.T) {
	mc := testMachine()
	progs := []Program{
		{Body: []Instr{Compute{Seconds: 0.3, Bytes: 0}, Allreduce{Bytes: 8}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 1.0, Bytes: 0}, Allreduce{Bytes: 8}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 0.5, Bytes: 0}, Allreduce{Bytes: 8}}, Iters: 1},
	}
	engine, _ := NewSim(mc, progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// N = 3 → depth 2; cost = 2·2·(latency + 8/bw); release after the
	// slowest rank arrives at t = 1.
	cost := 4 * (mc.NetLatency + 8/mc.NetBandwidth)
	want := 1 + cost
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	// Fast ranks spent the slack in comm state.
	if w := res.Trace.TimeInState(0, trace.SpanComm); w < 0.69 {
		t.Errorf("rank 0 wait = %v, want ≈ 0.7", w)
	}
}

func TestAllreduceRepeats(t *testing.T) {
	// The collective state must reset between iterations.
	progs := make([]Program, 4)
	for r := range progs {
		progs[r] = Program{
			Body:  []Instr{Compute{Seconds: 0.1, Bytes: 0}, Allreduce{Bytes: 8}},
			Iters: 5,
		}
	}
	engine, _ := NewSim(testMachine(), progs, Options{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if len(res.Trace.IterEnds[r]) != 5 {
			t.Errorf("rank %d iterations = %d", r, len(res.Trace.IterEnds[r]))
		}
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	mc := testMachine()
	mc.Placement = RoundRobin
	if mc.SocketOf(0) != 0 || mc.SocketOf(1) != 1 || mc.SocketOf(4) != 0 {
		t.Error("round-robin mapping wrong")
	}
	if mc.Placement.String() != "round-robin" || (Block).String() != "block" {
		t.Error("Placement strings")
	}
	// Two heavy ranks: under block placement they share socket 0 and are
	// throttled; under round robin they land on different sockets and run
	// at full speed.
	progs := []Program{
		{Body: []Instr{Compute{Seconds: 1, Bytes: 8e9}}, Iters: 1},
		{Body: []Instr{Compute{Seconds: 1, Bytes: 8e9}}, Iters: 1},
	}
	runWith := func(p Placement) float64 {
		m := testMachine()
		m.Placement = p
		engine, err := NewSim(m, progs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	block := runWith(Block)
	rr := runWith(RoundRobin)
	if math.Abs(rr-1) > 1e-9 {
		t.Errorf("round-robin makespan = %v, want 1 (no sharing)", rr)
	}
	if block <= rr {
		t.Errorf("block %v must be slower than round-robin %v", block, rr)
	}
}

func TestNodeHierarchy(t *testing.T) {
	mc := Meggie(4) // 2 nodes of 2 sockets
	if mc.NodeOf(0) != 0 || mc.NodeOf(19) != 0 {
		t.Error("ranks 0-19 must be on node 0")
	}
	if mc.NodeOf(20) != 1 {
		t.Error("rank 20 must be on node 1")
	}
	if !mc.SameNode(0, 19) || mc.SameNode(19, 20) {
		t.Error("SameNode wrong")
	}
	// No SocketsPerNode: every socket its own node.
	flat := testMachine()
	if flat.SameNode(0, 4) {
		t.Error("flat machine: different sockets are different nodes")
	}
	if !flat.SameNode(0, 1) {
		t.Error("flat machine: same socket is the same node")
	}
}

func TestIntraNodeMessagesAreFaster(t *testing.T) {
	mc := Meggie(4)
	run := func(to int) float64 {
		progs := make([]Program, to+1)
		for r := range progs {
			progs[r] = Program{Body: []Instr{Compute{Seconds: 1e-6}}, Iters: 1}
		}
		progs[0] = Program{Body: []Instr{Send{To: to, Bytes: 8192}}, Iters: 1}
		progs[to] = Program{Body: []Instr{Irecv{From: 0, Bytes: 8192}, Waitall{}}, Iters: 1}
		engine, err := NewSim(mc, progs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	intra := run(15) // rank 15: socket 1, node 0 (same node as rank 0)
	inter := run(25) // rank 25: socket 2, node 1
	if intra >= inter {
		t.Errorf("intra-node message (%v) not faster than inter-node (%v)", intra, inter)
	}
}
