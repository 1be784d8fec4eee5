package cluster

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// evKind discriminates the scheduled simulation actions. Events carry
// their payload inline instead of a closure, so scheduling never
// allocates: the heap is a flat []event and the dispatch in Run is a
// switch.
type evKind uint8

const (
	// evResume unblocks rank and continues its interpreter.
	evResume evKind = iota
	// evDeliverEager delivers an eager payload on channel ch.
	evDeliverEager
	// evRendezvousDone completes req's transfer and resumes the blocked
	// sender rank.
	evRendezvousDone
	// evFinishCompute finishes task if its version still matches ver
	// (stale finish events superseded by a rebalance are skipped).
	evFinishCompute
)

// event is one scheduled simulation action, stored by value in the heap.
type event struct {
	t    float64
	seq  int64
	kind evKind
	rank *rankState
	req  *request
	task *computeTask
	ver  int64
	ch   int32
}

// eventHeap is a 4-ary min-heap of events ordered by (time, insertion
// sequence) for determinism. It is value-typed: push and pop move event
// structs within one backing array, with no per-event boxing and no
// interface{} round-trips.
//
// The (t, seq) key is a strict total order — seq is unique per event —
// so heap arity is pure memory layout: every correct min-heap pops the
// identical event sequence (pinned by TestEventHeapMatchesBinaryReference).
// The 4-ary node halves the tree depth, all four children are adjacent
// in memory, and both sifts move the hole instead of swapping — one
// 64-byte event copy per level rather than three. See PERFORMANCE.md
// for the measured events/s.
type eventHeap []event

//pomvet:allocfree
func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

// lessEvent orders an out-of-array event against a stored one — the
// hole-based sifts compare the moving element without writing it back
// at every level.
//
//pomvet:allocfree
func lessEvent(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

//pomvet:allocfree
func (h *eventHeap) push(e event) {
	*h = append(*h, e) //pomvet:allow allocfree backing array is pre-sized by the engine; growth is amortized warm-up, and the AllocsPerRun pin proves the steady state
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !lessEvent(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

//pomvet:allocfree
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	e := q[n]      // the displaced tail event, sifted down from the root
	q[n] = event{} // clear pointers for the GC
	q = q[:n]
	*h = q
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, small) {
				small = c
			}
		}
		if !lessEvent(q[small], e) {
			break
		}
		q[i] = q[small]
		i = small
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// DelayInjection adds extra scalar work to one rank in one iteration —
// the paper's one-off disturbance that launches an idle wave.
type DelayInjection struct {
	// Rank is the disturbed rank.
	Rank int
	// Iter is the zero-based iteration receiving the extra work.
	Iter int
	// Extra is the additional nominal compute time (s).
	Extra float64
}

// Options configures a simulation run.
type Options struct {
	// Delays lists one-off delay injections.
	Delays []DelayInjection
	// ComputeNoise, when non-nil, returns extra nominal compute seconds
	// for (rank, iteration) — fine-grained system noise. It must be
	// deterministic.
	ComputeNoise func(rank, iter int) float64
	// MaxTime aborts runs exceeding this simulated time (0 = 1e9 s).
	MaxTime float64
}

// Result is a completed simulation.
type Result struct {
	// Trace is the full execution record.
	Trace *trace.Trace
	// Makespan is the completion time of the slowest rank.
	Makespan float64
	// SocketBytes[s] is the memory traffic socket s processed.
	SocketBytes []float64
	// Events counts processed simulation events.
	Events int
}

// AggregateBandwidth returns the average memory bandwidth of socket s over
// the run (bytes/s).
func (r *Result) AggregateBandwidth(s int) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.SocketBytes[s] / r.Makespan
}

// request is a posted non-blocking receive. Requests are recycled through
// the simulator's free list once retired by a Wait/Waitall.
type request struct {
	owner *rankState
	done  bool
}

// channel carries messages between one ordered rank pair, FIFO. The
// ordered pairs are static (every Send/Irecv target is literal in the
// program bodies), so NewSim packs the used pairs into a CSR-style edge
// array — O(edges) memory instead of a map or an O(n²) dense matrix —
// and lookup is a binary search over a rank's few partners. The queue
// slices keep their capacity across iterations (pops shift in place).
type channel struct {
	// arrived holds eager payload arrival times not yet matched.
	arrived []float64
	// recvs holds posted, unmatched receive requests.
	recvs []*request
	// sends holds blocked rendezvous senders (with message size).
	sends []rendezvousSend
}

// rendezvousSend is a sender blocked in the handshake.
type rendezvousSend struct {
	r     *rankState
	bytes float64
}

// computeTask is a running compute phase on a socket. Tasks are recycled
// through the simulator's free list; version survives recycling so stale
// finish events can never match a reused task.
type computeTask struct {
	r          *rankState
	remaining  float64 // nominal seconds left
	demand     float64 // bytes/s while running at nominal speed
	rate       float64 // current progress rate in (0, 1]
	lastUpdate float64
	version    int64
}

// socketState tracks the compute tasks sharing one socket's bandwidth.
type socketState struct {
	tasks     []*computeTask
	bytesDone float64
}

// rankState is one simulated MPI process.
type rankState struct {
	id         int
	prog       Program
	pc         int
	iter       int
	pending    []*request
	waiting    bool // blocked in Waitall
	waitingOne bool // blocked in Wait (oldest request)
	inBarrier  bool
	done       bool
	blockStart float64
	blockKind  trace.SpanKind
}

// Sim is the discrete-event simulator state.
type Sim struct {
	mc             MachineConfig
	opts           Options
	now            float64
	seq            int64
	events         eventHeap
	ranks          []*rankState
	sockets        []*socketState
	chanStart      []int32   // per-from-rank offsets into chanTo/chans
	chanTo         []int32   // destination rank of each edge, sorted per from
	chans          []channel // one per used ordered (from, to) pair
	tr             *trace.Trace
	barrier        []*rankState
	allreduce      []*rankState
	allreduceBytes float64
	nEvents        int
	delays         map[[2]int]float64
	makespan       float64

	// Free lists and scratch keeping the steady-state event loop
	// allocation-free.
	freeReqs  []*request
	freeTasks []*computeTask
	order     []*computeTask // rebalanceSocket sort scratch
}

// NewSim validates inputs and builds a simulator for the given per-rank
// programs. len(progs) ranks are placed block-wise onto the machine's
// sockets; the machine must have enough cores.
func NewSim(mc MachineConfig, progs []Program, opts Options) (*Sim, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	n := len(progs)
	if n < 1 {
		return nil, errors.New("cluster: no programs")
	}
	if n > mc.Cores() {
		return nil, fmt.Errorf("cluster: %d ranks exceed %d cores", n, mc.Cores())
	}
	s := &Sim{
		mc:     mc,
		opts:   opts,
		tr:     trace.NewTrace(n),
		delays: make(map[[2]int]float64),
	}
	s.buildChannels(progs)
	for _, d := range opts.Delays {
		if d.Rank < 0 || d.Rank >= n {
			return nil, fmt.Errorf("cluster: delay rank %d out of range", d.Rank)
		}
		if iters := progs[d.Rank].Iters; d.Iter < 0 || d.Iter >= iters {
			return nil, fmt.Errorf("cluster: delay iteration %d out of range [0, %d)", d.Iter, iters)
		}
		s.delays[[2]int{d.Rank, d.Iter}] += d.Extra
	}
	s.ranks = make([]*rankState, n)
	for i := range s.ranks {
		if progs[i].Iters < 1 || len(progs[i].Body) == 0 {
			return nil, fmt.Errorf("cluster: rank %d has an empty program", i)
		}
		s.ranks[i] = &rankState{id: i, prog: progs[i]}
		// Pre-size the trace so recording in the event loop never grows a
		// slice: at most one span per instruction per iteration (merging
		// only reduces the count) and one mark per iteration.
		s.tr.Reserve(i, progs[i].Iters*(len(progs[i].Body)+1)+1, progs[i].Iters)
	}
	s.sockets = make([]*socketState, mc.Sockets)
	for i := range s.sockets {
		s.sockets[i] = &socketState{}
	}
	s.barrier = make([]*rankState, 0, n)
	s.allreduce = make([]*rankState, 0, n)
	return s, nil
}

// scheduleResume enqueues an unblock of r at time t.
func (s *Sim) scheduleResume(t float64, r *rankState) {
	s.seq++
	s.events.push(event{t: t, seq: s.seq, kind: evResume, rank: r})
}

// scheduleEager enqueues an eager payload delivery on channel ci at t.
func (s *Sim) scheduleEager(t float64, ci int32) {
	s.seq++
	s.events.push(event{t: t, seq: s.seq, kind: evDeliverEager, ch: ci})
}

// scheduleRendezvousDone enqueues the completion of req's transfer and
// the resumption of the blocked sender at t.
func (s *Sim) scheduleRendezvousDone(t float64, req *request, sender *rankState) {
	s.seq++
	s.events.push(event{t: t, seq: s.seq, kind: evRendezvousDone, req: req, rank: sender})
}

// scheduleFinish enqueues task's completion at t, tagged with its current
// version so a later rebalance invalidates it.
func (s *Sim) scheduleFinish(t float64, task *computeTask) {
	s.seq++
	s.events.push(event{t: t, seq: s.seq, kind: evFinishCompute, task: task, ver: task.version})
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (*Result, error) {
	maxTime := s.opts.MaxTime
	if maxTime <= 0 {
		maxTime = 1e9
	}
	for _, r := range s.ranks {
		s.step(r)
	}
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.t < s.now-1e-9 {
			return nil, fmt.Errorf("cluster: time went backwards (%g after %g)", e.t, s.now)
		}
		if e.t > s.now {
			s.now = e.t
		}
		if s.now > maxTime {
			return nil, fmt.Errorf("cluster: exceeded MaxTime %g", maxTime)
		}
		s.nEvents++
		switch e.kind {
		case evResume:
			s.resume(e.rank)
		case evDeliverEager:
			s.deliverEager(&s.chans[e.ch])
		case evRendezvousDone:
			s.completeRequest(e.req)
			s.resume(e.rank)
		case evFinishCompute:
			if e.task.version == e.ver {
				s.finishCompute(e.task)
			}
		}
	}
	for _, r := range s.ranks {
		if !r.done {
			return nil, fmt.Errorf("cluster: deadlock — rank %d blocked at t=%g (pc=%d iter=%d)",
				r.id, s.now, r.pc, r.iter)
		}
	}
	res := &Result{
		Trace:       s.tr,
		Makespan:    s.makespan,
		SocketBytes: make([]float64, len(s.sockets)),
		Events:      s.nEvents,
	}
	for i, sock := range s.sockets {
		res.SocketBytes[i] = sock.bytesDone
	}
	if err := s.tr.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// --- object pools ------------------------------------------------------

// newRequest takes a request from the free list (or allocates one) and
// initializes it for owner.
func (s *Sim) newRequest(owner *rankState) *request {
	if n := len(s.freeReqs); n > 0 {
		q := s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
		q.owner, q.done = owner, false
		return q
	}
	return &request{owner: owner}
}

// freeRequest recycles a retired request. No event may reference it
// afterwards (the rendezvous completion event fires before a request can
// be retired by Wait/Waitall).
func (s *Sim) freeRequest(q *request) {
	q.owner = nil
	s.freeReqs = append(s.freeReqs, q)
}

// newTask takes a compute task from the free list (or allocates one). The
// version counter survives recycling, so finish events scheduled against
// a previous incarnation can never match.
func (s *Sim) newTask() *computeTask {
	if n := len(s.freeTasks); n > 0 {
		t := s.freeTasks[n-1]
		s.freeTasks = s.freeTasks[:n-1]
		return t
	}
	return &computeTask{}
}

// freeTask invalidates outstanding finish events and recycles the task.
func (s *Sim) freeTask(t *computeTask) {
	t.version++
	t.r = nil
	s.freeTasks = append(s.freeTasks, t)
}

// step runs rank r's interpreter from its current position until the rank
// blocks or finishes.
func (s *Sim) step(r *rankState) {
	for !r.done {
		if r.pc == len(r.prog.Body) {
			r.pc = 0
			r.iter++
			s.tr.MarkIterEnd(r.id, s.now)
			if r.iter >= r.prog.Iters {
				r.done = true
				if s.now > s.makespan {
					s.makespan = s.now
				}
				return
			}
		}
		switch in := r.prog.Body[r.pc].(type) {
		case Compute:
			s.startCompute(r, in)
			return
		case Send:
			if !s.startSend(r, in) {
				return // blocked (rendezvous handshake or eager overhead)
			}
		case Irecv:
			s.postIrecv(r, in)
			r.pc++
		case Waitall:
			if !s.tryCompleteWaitall(r) {
				return
			}
		case Wait:
			if !s.tryCompleteWait(r) {
				return
			}
		case Barrier:
			s.enterBarrier(r)
			return
		case Allreduce:
			s.enterAllreduce(r, in.Bytes)
			return
		default:
			panic(fmt.Sprintf("cluster: unknown instruction %T", r.prog.Body[r.pc]))
		}
	}
}

// resume records the blocked span and continues the rank past the
// instruction at pc.
func (s *Sim) resume(r *rankState) {
	s.tr.Record(r.id, r.blockKind, r.blockStart, s.now)
	r.pc++
	s.step(r)
}

// block marks r blocked on the current instruction.
func (s *Sim) block(r *rankState, kind trace.SpanKind) {
	r.blockStart = s.now
	r.blockKind = kind
}

// --- compute handling -------------------------------------------------

// startCompute begins a compute phase for r on its socket.
func (s *Sim) startCompute(r *rankState, in Compute) {
	dur := in.Seconds
	if extra, ok := s.delays[[2]int{r.id, r.iter}]; ok {
		dur += extra
	}
	if s.opts.ComputeNoise != nil {
		dur += s.opts.ComputeNoise(r.id, r.iter)
	}
	if dur <= 0 {
		dur = 1e-12
	}
	task := s.newTask()
	task.r = r
	task.remaining = dur
	task.demand = in.Bytes / dur
	task.rate = 1
	task.lastUpdate = s.now
	s.block(r, trace.SpanCompute)
	sock := s.sockets[s.mc.SocketOf(r.id)]
	s.advanceSocket(sock)
	sock.tasks = append(sock.tasks, task)
	s.rebalanceSocket(sock)
}

// advanceSocket accrues progress of all running tasks up to now.
func (s *Sim) advanceSocket(sock *socketState) {
	for _, t := range sock.tasks {
		dt := s.now - t.lastUpdate
		if dt > 0 {
			t.remaining -= dt * t.rate
			if t.remaining < 0 {
				t.remaining = 0
			}
			sock.bytesDone += t.demand * t.rate * dt
			t.lastUpdate = s.now
		}
	}
}

// rebalanceSocket recomputes max-min fair rates and reschedules finish
// events. Callers must advanceSocket first.
func (s *Sim) rebalanceSocket(sock *socketState) {
	if len(sock.tasks) == 0 {
		return
	}
	// Max-min fair bandwidth allocation (water-filling) over the tasks in
	// ascending demand order. The scratch slice and the in-place stable
	// insertion sort avoid sort.SliceStable's per-call closure and
	// reflection swaps; sockets host at most a few dozen tasks.
	order := append(s.order[:0], sock.tasks...)
	s.order = order
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].demand < order[j-1].demand; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	remB := s.mc.SocketBandwidth
	remK := len(order)
	for _, t := range order {
		share := remB / float64(remK)
		if t.demand <= share {
			t.rate = 1
			remB -= t.demand
		} else {
			t.rate = share / t.demand
			remB -= share
		}
		remK--
	}
	// Reschedule finish events with version-based cancellation.
	for _, t := range order {
		t.version++
		s.scheduleFinish(s.now+t.remaining/t.rate, t)
	}
}

// finishCompute completes a task and resumes its rank.
func (s *Sim) finishCompute(task *computeTask) {
	sock := s.sockets[s.mc.SocketOf(task.r.id)]
	s.advanceSocket(sock)
	for i, t := range sock.tasks {
		if t == task {
			sock.tasks = append(sock.tasks[:i], sock.tasks[i+1:]...)
			break
		}
	}
	s.rebalanceSocket(sock)
	r := task.r
	s.freeTask(task)
	s.resume(r)
}

// --- communication handling -------------------------------------------

// buildChannels packs the ordered (from, to) pairs the programs can use
// into the CSR-style edge arrays. Targets are literal in the instruction
// stream, so the set is complete; out-of-range targets are left to the
// interpreter's panics.
func (s *Sim) buildChannels(progs []Program) {
	n := len(progs)
	dests := make([][]int32, n)
	add := func(from, to int) {
		if from >= 0 && from < n && to >= 0 && to < n && from != to {
			dests[from] = append(dests[from], int32(to))
		}
	}
	for r, pg := range progs {
		for _, in := range pg.Body {
			switch v := in.(type) {
			case Send:
				add(r, v.To)
			case Irecv:
				add(v.From, r)
			}
		}
	}
	s.chanStart = make([]int32, n+1)
	for from, ds := range dests {
		slices.Sort(ds)
		ds = slices.Compact(ds)
		dests[from] = ds
		s.chanStart[from+1] = s.chanStart[from] + int32(len(ds))
	}
	edges := int(s.chanStart[n])
	s.chanTo = make([]int32, 0, edges)
	for _, ds := range dests {
		s.chanTo = append(s.chanTo, ds...)
	}
	s.chans = make([]channel, edges)
}

// chanIdx returns the edge index of the ordered (from, to) channel via a
// binary search over from's sorted partner list.
func (s *Sim) chanIdx(from, to int) int32 {
	lo, hi := s.chanStart[from], s.chanStart[from+1]
	t := int32(to)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.chanTo[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.chanStart[from+1] && s.chanTo[lo] == t {
		return lo
	}
	panic(fmt.Sprintf("cluster: no channel %d -> %d declared by the programs", from, to))
}

// transferTime returns latency + size/bandwidth for a message between the
// given ranks, using the faster intra-node parameters when both ranks
// share a node.
func (s *Sim) transferTime(from, to int, bytes float64) float64 {
	lat, bw := s.mc.NetLatency, s.mc.NetBandwidth
	if s.mc.SameNode(from, to) {
		if s.mc.IntraNodeLatency > 0 {
			lat = s.mc.IntraNodeLatency
		}
		if s.mc.IntraNodeBandwidth > 0 {
			bw = s.mc.IntraNodeBandwidth
		}
	}
	return lat + bytes/bw
}

// interNodeTransferTime is the worst-case (network) transfer time, used
// for collectives that necessarily cross nodes.
func (s *Sim) interNodeTransferTime(bytes float64) float64 {
	return s.mc.NetLatency + bytes/s.mc.NetBandwidth
}

// popFront removes and returns the oldest element of a FIFO queue,
// shifting in place so the slice keeps its capacity across iterations
// and zeroing the vacated slot so pooled pointers don't linger.
func popFront[T any](q *[]T) T {
	v := (*q)[0]
	copy(*q, (*q)[1:])
	last := len(*q) - 1
	var zero T
	(*q)[last] = zero
	*q = (*q)[:last]
	return v
}

// startSend executes a Send. It returns true when the instruction
// completed synchronously (never: both protocols block at least briefly),
// false when the rank blocked.
func (s *Sim) startSend(r *rankState, in Send) bool {
	if in.To < 0 || in.To >= len(s.ranks) || in.To == r.id {
		panic(fmt.Sprintf("cluster: rank %d sends to invalid rank %d", r.id, in.To))
	}
	ci := s.chanIdx(r.id, in.To)
	c := &s.chans[ci]
	if in.Bytes <= s.mc.EagerThreshold {
		// Eager: payload is shipped immediately; the sender only pays the
		// posting overhead.
		s.scheduleEager(s.now+s.transferTime(r.id, in.To, in.Bytes), ci)
		s.block(r, trace.SpanComm)
		s.scheduleResume(s.now+s.mc.SendOverhead, r)
		return false
	}
	// Rendezvous: wait for a matching posted receive, then transfer.
	s.block(r, trace.SpanComm)
	if len(c.recvs) > 0 {
		req := popFront(&c.recvs)
		s.scheduleRendezvousDone(s.now+s.transferTime(r.id, in.To, in.Bytes), req, r)
	} else {
		c.sends = append(c.sends, rendezvousSend{r: r, bytes: in.Bytes})
	}
	return false
}

// deliverEager handles an eager payload arriving at the receiver.
func (s *Sim) deliverEager(c *channel) {
	if len(c.recvs) > 0 {
		req := popFront(&c.recvs)
		s.completeRequest(req)
		return
	}
	c.arrived = append(c.arrived, s.now)
}

// postIrecv posts a non-blocking receive for r.
func (s *Sim) postIrecv(r *rankState, in Irecv) {
	if in.From < 0 || in.From >= len(s.ranks) || in.From == r.id {
		panic(fmt.Sprintf("cluster: rank %d receives from invalid rank %d", r.id, in.From))
	}
	req := s.newRequest(r)
	r.pending = append(r.pending, req)
	c := &s.chans[s.chanIdx(in.From, r.id)]
	switch {
	case len(c.arrived) > 0:
		// Eager payload already here: completes immediately.
		popFront(&c.arrived)
		req.done = true
	case len(c.sends) > 0:
		// A rendezvous sender is blocked on us: start the transfer now.
		snd := popFront(&c.sends)
		s.scheduleRendezvousDone(s.now+s.transferTime(in.From, r.id, snd.bytes), req, snd.r)
	default:
		c.recvs = append(c.recvs, req)
	}
}

// completeRequest marks a receive done and wakes its owner if the owner
// was blocked in Waitall (all requests complete) or Wait (oldest request
// complete).
func (s *Sim) completeRequest(req *request) {
	req.done = true
	r := req.owner
	switch {
	case r.waiting && allDone(r.pending):
		r.waiting = false
		s.retireAll(r)
		s.resume(r)
	case r.waitingOne && len(r.pending) > 0 && r.pending[0].done:
		r.waitingOne = false
		s.freeRequest(popFront(&r.pending))
		s.resume(r)
	}
}

// retireAll recycles every (completed) pending request of r.
func (s *Sim) retireAll(r *rankState) {
	for _, q := range r.pending {
		s.freeRequest(q)
	}
	r.pending = r.pending[:0]
}

// tryCompleteWaitall returns true when all requests are already complete
// (Waitall falls through); otherwise it blocks the rank.
func (s *Sim) tryCompleteWaitall(r *rankState) bool {
	if allDone(r.pending) {
		s.retireAll(r)
		r.pc++
		return true
	}
	r.waiting = true
	s.block(r, trace.SpanComm)
	return false
}

// tryCompleteWait handles the single-request MPI_Wait: retire the oldest
// request if complete, otherwise block until it is. An MPI_Wait with no
// outstanding request is a no-op (matching MPI_REQUEST_NULL semantics).
func (s *Sim) tryCompleteWait(r *rankState) bool {
	if len(r.pending) == 0 {
		r.pc++
		return true
	}
	if r.pending[0].done {
		s.freeRequest(popFront(&r.pending))
		r.pc++
		return true
	}
	r.waitingOne = true
	s.block(r, trace.SpanComm)
	return false
}

func allDone(reqs []*request) bool {
	for _, q := range reqs {
		if !q.done {
			return false
		}
	}
	return true
}

// enterBarrier blocks r until every rank has arrived.
func (s *Sim) enterBarrier(r *rankState) {
	s.block(r, trace.SpanComm)
	r.inBarrier = true
	s.barrier = append(s.barrier, r)
	if len(s.barrier) == len(s.ranks) {
		release := s.now + s.mc.NetLatency
		for _, w := range s.barrier {
			w.inBarrier = false
			s.scheduleResume(release, w)
		}
		s.barrier = s.barrier[:0]
	}
}

// enterAllreduce blocks r until every rank has contributed, then releases
// all of them after the reduce+broadcast tree cost
// 2·⌈log₂N⌉·(latency + bytes/bandwidth).
func (s *Sim) enterAllreduce(r *rankState, bytes float64) {
	s.block(r, trace.SpanComm)
	s.allreduce = append(s.allreduce, r)
	if bytes > s.allreduceBytes {
		s.allreduceBytes = bytes
	}
	if len(s.allreduce) == len(s.ranks) {
		depth := 0
		for 1<<depth < len(s.ranks) {
			depth++
		}
		cost := 2 * float64(depth) * s.interNodeTransferTime(s.allreduceBytes)
		release := s.now + cost
		for _, w := range s.allreduce {
			s.scheduleResume(release, w)
		}
		s.allreduce = s.allreduce[:0]
		s.allreduceBytes = 0
	}
}
