// Package mpisim is a deterministic discrete-event simulator of MPI program
// executions over the IR, replacing the paper's cluster runs. Each rank
// owns a virtual clock and executes a flattened operation list; point-to-
// point messages are matched FIFO per (src, dst, tag); non-blocking
// operations complete at Wait/Waitall; collectives synchronize all ranks.
//
// The causal semantics are the ones the paper's analyses depend on: a late
// sender delays its receiver (rendezvous), Waitall completes at the maximum
// of its pending requests, and a collective completes only after the last
// rank arrives — so load imbalance injected into one loop propagates
// through communication edges exactly as in case studies A and B.
//
// Simulation is in two phases: flattening (per-rank IR walk producing an
// op list with interned calling contexts, no cross-rank interaction) and
// replay (cooperative advancement of rank clocks with message matching and
// deadlock detection).
package mpisim

import (
	"context"
	"fmt"
	"math"
	"strings"

	"perflow/internal/ir"
	"perflow/internal/threadsim"
	"perflow/internal/trace"
)

// Config parameterizes a simulated run.
type Config struct {
	NRanks  int
	Threads int // threads per rank inside parallel regions (default 1)

	// Network model: transfer time of b bytes is Latency + b/Bandwidth.
	Latency   float64 // µs; default 2
	Bandwidth float64 // bytes/µs; default 10000 (10 GB/s)
	// EagerThreshold separates eager sends (sender does not block) from
	// rendezvous sends (sender blocks until the receive is posted).
	EagerThreshold float64 // bytes; default DefaultEagerThreshold

	// Collection perturbation, used to measure dynamic-analysis overhead
	// (Table 1) and the tracing-vs-sampling comparison (§5.3). Zero values
	// simulate an uninstrumented run.
	PerEventOverhead float64 // µs added to the rank clock per recorded event
	SamplingPeriod   float64 // µs between sampling interrupts (0 = off)
	SampleCost       float64 // µs of handler work per sampling interrupt

	// MaxOpsPerRank caps flattened operations per rank as a runaway guard.
	MaxOpsPerRank int // default 4,000,000

	// GPU model (the CUDA extension): kernel launches cost
	// GPULaunchOverhead on the host; host<->device transfers move at
	// GPUBandwidth.
	GPULaunchOverhead float64 // µs; default 3
	GPUBandwidth      float64 // bytes/µs; default 8000 (PCIe-ish)

	// Faults injects deterministic failures (rank crashes, dropped
	// messages, slow ranks) into the run; nil simulates a healthy cluster.
	// With a non-nil plan the run carries per-rank trace.RankStatus and a
	// replay stall degrades into truncated traces instead of a
	// DeadlockError.
	Faults *FaultPlan

	// AllowPartial converts a replay stall into deterministic truncation
	// of the blocked ranks (marked Stalled in Run.Status) even without a
	// fault plan, so a hanging program still yields partial traces.
	// Implied by Faults != nil.
	AllowPartial bool
}

// DefaultEagerThreshold is the default Config.EagerThreshold: sends of at
// most this many bytes complete eagerly, larger sends rendezvous. The lint
// deadlock analyzer uses the same threshold to decide which sends block.
const DefaultEagerThreshold = 4096

func (c Config) withDefaults() Config {
	if c.NRanks <= 0 {
		c.NRanks = 1
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Latency <= 0 {
		c.Latency = 2
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = 10000
	}
	if c.EagerThreshold <= 0 {
		c.EagerThreshold = DefaultEagerThreshold
	}
	if c.MaxOpsPerRank <= 0 {
		c.MaxOpsPerRank = 4_000_000
	}
	if c.GPULaunchOverhead <= 0 {
		c.GPULaunchOverhead = 3
	}
	if c.GPUBandwidth <= 0 {
		c.GPUBandwidth = 8000
	}
	return c
}

// transfer returns the wire time for b bytes.
func (c Config) transfer(b float64) float64 {
	return c.Latency + b/c.Bandwidth
}

// slowdown is the multiplicative compute dilation caused by sampling
// interrupts: with a handler of SampleCost every SamplingPeriod, compute
// runs (1 + cost/period) slower.
func (c Config) slowdown() float64 {
	if c.SamplingPeriod <= 0 || c.SampleCost <= 0 {
		return 1
	}
	return 1 + c.SampleCost/c.SamplingPeriod
}

// slowFor is the injected straggler dilation of rank (1 = none).
func (c Config) slowFor(rank int) float64 {
	return c.Faults.slowFactor(rank)
}

// collectiveCost returns the synchronization-free cost of a collective on
// np ranks moving b bytes per rank: a log-tree term for latency-bound
// collectives plus a bandwidth term; Alltoall pays a per-peer bandwidth
// term.
func (c Config) collectiveCost(op ir.CommKind, b float64, np int) float64 {
	stages := math.Ceil(math.Log2(float64(max(np, 2))))
	switch op {
	case ir.CommBarrier:
		return c.Latency * stages
	case ir.CommAlltoall:
		return c.Latency*stages + b*float64(np-1)/c.Bandwidth
	case ir.CommAllreduce:
		return (c.Latency + b/c.Bandwidth) * stages * 2
	default: // bcast, reduce, allgather
		return (c.Latency + b/c.Bandwidth) * stages
	}
}

// DeadlockError reports that replay stalled with unfinished ranks. Blocked
// lists one entry per stuck rank with its pending operation.
type DeadlockError struct {
	Blocked []BlockedRank
}

// BlockedRank describes where one rank was stuck at deadlock.
type BlockedRank struct {
	Rank  int
	Op    string // MPI op name
	Debug string // file:line
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpisim: deadlock with %d blocked ranks:", len(e.Blocked))
	for i, br := range e.Blocked {
		if i == 4 {
			fmt.Fprintf(&b, " ... (%d more)", len(e.Blocked)-4)
			break
		}
		fmt.Fprintf(&b, " rank %d at %s (%s);", br.Rank, br.Op, br.Debug)
	}
	return b.String()
}

// Run simulates program p under cfg and returns the recorded execution.
func Run(p *ir.Program, cfg Config) (*trace.Run, error) {
	return RunCtx(context.Background(), p, cfg)
}

// RunCtx is Run under a caller-supplied context: cancellation and deadlines
// are honored between flattening passes and between replay rounds, so a
// long simulation aborts promptly with ctx.Err().
func RunCtx(ctx context.Context, p *ir.Program, cfg Config) (*trace.Run, error) {
	cfg = cfg.withDefaults()
	if !p.Finalized() {
		if err := p.Finalize(); err != nil {
			return nil, err
		}
	}

	cct := trace.NewCCT()
	reqs := requestIDs(p)
	ranks := make([]*rankState, cfg.NRanks)
	prevOps := 0
	for r := 0; r < cfg.NRanks; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Ranks of one program flatten to similar op counts, so the
		// previous rank's count sizes this rank's list.
		fl := &flattener{prog: p, rank: r, nranks: cfg.NRanks, cfg: cfg, cct: cct, reqs: reqs,
			ops: make([]op, 0, prevOps)}
		entry := p.Function(p.Entry)
		entryCtx := cct.Intern(trace.NoCtx, entry.ID())
		if err := fl.nodes(entry.Body, entryCtx, 1); err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		prevOps = len(fl.ops)
		// Every op emits exactly one rank-level event; only parallel
		// regions append more (their threads' events).
		ranks[r] = &rankState{rank: r, ops: fl.ops, requests: map[int32][]*request{},
			events: make([]trace.Event, 0, len(fl.ops))}
	}

	world := &world{
		cfg: cfg, prog: p, cct: cct, ranks: ranks,
		sends:   map[chanKey][]*message{},
		recvs:   map[chanKey][]*recvPost{},
		wilds:   map[wildKey][]*recvPost{},
		status:  make([]trace.RankStatus, cfg.NRanks),
		dropSeq: map[chanKey]int{},
	}
	if err := world.replay(ctx); err != nil {
		return nil, err
	}

	run := &trace.Run{
		Program:        p,
		NRanks:         cfg.NRanks,
		ThreadsPerRank: cfg.Threads,
		CCT:            cct,
		Events:         make([][]trace.Event, cfg.NRanks),
		Elapsed:        make([]float64, cfg.NRanks),
	}
	for r, rs := range ranks {
		run.Events[r] = rs.events
		run.Elapsed[r] = rs.clock
	}
	run.Syncs = world.syncs
	if cfg.Faults != nil {
		for _, s := range cfg.Faults.Slows {
			if s.Rank >= 0 && s.Rank < cfg.NRanks {
				world.status[s.Rank].SlowFactor = cfg.Faults.slowFactor(s.Rank)
			}
		}
	}
	for _, s := range world.status {
		if !s.Clean() {
			run.Status = world.status
			break
		}
	}
	return run, nil
}

// ---- flattening ----

type opKind uint8

const (
	opCompute opKind = iota
	opComm
	opRegion
	opKernel
	opDeviceSync
)

// op is one flattened operation. It holds no pointer or string, so a
// rank's op list is one flat allocation the garbage collector never scans:
// a parallel region or kernel is looked up from its node at step time, and
// request names are interned to ints.
type op struct {
	// amount is the duration (µs) of a compute op and the message size
	// (bytes) of a comm op.
	amount float64
	node   ir.NodeID
	ctx    trace.CtxID

	// comm
	peer int32
	tag  int32
	req  int32 // interned request name; see requestIDs

	stream int32 // kernel and device sync
	kind   opKind
	commOp uint8 // an ir.CommKind
}

// comm returns the MPI operation of a comm op.
func (o *op) comm() ir.CommKind { return ir.CommKind(o.commOp) }

// requestIDs interns the request names of p's comm nodes, indexed by node:
// equal names share an id, numbered from 0. Sendrecv expansion takes fresh
// negative ids instead (see pushSendrecv), so the two never collide.
func requestIDs(p *ir.Program) []int32 {
	ids := make([]int32, p.NumNodes())
	names := map[string]int32{}
	for id := range ids {
		c, ok := p.Node(ir.NodeID(id)).(*ir.Comm)
		if !ok {
			continue
		}
		rid, ok := names[c.Req]
		if !ok {
			rid = int32(len(names))
			names[c.Req] = rid
		}
		ids[id] = rid
	}
	return ids
}

type flattener struct {
	prog   *ir.Program
	rank   int
	nranks int
	cfg    Config
	cct    *trace.CCT
	reqs   []int32 // request id per comm node
	ops    []op
	srSeq  int32 // Sendrecv expansions so far
}

func (f *flattener) push(o op) error {
	if len(f.ops) >= f.cfg.MaxOpsPerRank {
		return fmt.Errorf("mpisim: rank %d exceeds %d flattened operations (runaway loop?)", f.rank, f.cfg.MaxOpsPerRank)
	}
	f.ops = append(f.ops, o)
	return nil
}

// pushSendrecv expands MPI_Sendrecv into a non-blocking pair plus waits on
// unique request names, preserving the fused call's deadlock-freedom: the
// send to the peer and the receive from the symmetric partner progress
// independently. All four ops carry the Sendrecv node identity.
func (f *flattener) pushSendrecv(x *ir.Comm, ctx trace.CtxID) error {
	sendPeer := x.Peer.Resolve(f.rank, f.nranks)
	recvPeer := x.Peer.Symmetric().Resolve(f.rank, f.nranks)
	if sendPeer < 0 || recvPeer < 0 {
		return fmt.Errorf("mpisim: rank %d: MPI_Sendrecv at %s has no resolvable peer", f.rank, x.Debug())
	}
	nodeCtx := f.cct.Intern(ctx, x.ID())
	bytes := x.Bytes.Value(f.rank, f.nranks)
	f.srSeq++
	sreq, rreq := -2*f.srSeq, -2*f.srSeq+1
	sp, rp, tag := int32(sendPeer), int32(recvPeer), int32(x.Tag)
	ops := [4]op{
		{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: uint8(ir.CommIsend), peer: sp, amount: bytes, tag: tag, req: sreq},
		{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: uint8(ir.CommIrecv), peer: rp, amount: bytes, tag: tag, req: rreq},
		{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: uint8(ir.CommWait), peer: rp, req: rreq},
		{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: uint8(ir.CommWait), peer: sp, req: sreq},
	}
	for _, o := range ops {
		if err := f.push(o); err != nil {
			return err
		}
	}
	return nil
}

func (f *flattener) nodes(ns []ir.Node, ctx trace.CtxID, mult float64) error {
	for _, n := range ns {
		if err := f.node(n, ctx, mult); err != nil {
			return err
		}
	}
	return nil
}

func (f *flattener) node(n ir.Node, ctx trace.CtxID, mult float64) error {
	switch x := n.(type) {
	case *ir.Compute:
		dur := x.Cost.Value(f.rank, f.nranks) * mult * f.cfg.slowdown() * f.cfg.slowFor(f.rank)
		if dur <= 0 {
			return nil
		}
		return f.push(op{kind: opCompute, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()), amount: dur})

	case *ir.Loop:
		trips := x.Trips.Value(f.rank, f.nranks)
		if trips <= 0 {
			return nil
		}
		loopCtx := f.cct.Intern(ctx, x.ID())
		if !x.CommPerIter {
			// Closed form: multiply nested costs; comm ops inside execute
			// once (as if hoisted), keeping cross-rank matching counts
			// independent of per-rank trip variation.
			return f.nodes(x.Body, loopCtx, mult*trips)
		}
		iters := int(trips)
		for i := 0; i < iters; i++ {
			if err := f.nodes(x.Body, loopCtx, mult); err != nil {
				return err
			}
		}
		return nil

	case *ir.Branch:
		if x.Taken.Value(f.rank, f.nranks) == 0 {
			return nil
		}
		return f.nodes(x.Body, f.cct.Intern(ctx, x.ID()), mult)

	case *ir.Call:
		callCtx := f.cct.Intern(ctx, x.ID())
		if x.External || x.Indirect {
			dur := x.Cost.Value(f.rank, f.nranks) * mult * f.cfg.slowdown() * f.cfg.slowFor(f.rank)
			if dur <= 0 {
				return nil
			}
			return f.push(op{kind: opCompute, node: x.ID(), ctx: callCtx, amount: dur})
		}
		callee := f.prog.Function(x.Callee)
		if callee == nil {
			return fmt.Errorf("mpisim: call to undefined function %q at %s", x.Callee, x.Debug())
		}
		return f.nodes(callee.Body, f.cct.Intern(callCtx, callee.ID()), mult)

	case *ir.Comm:
		if x.Op == ir.CommSendrecv {
			return f.pushSendrecv(x, ctx)
		}
		o := op{
			kind: opComm, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()),
			commOp: uint8(x.Op), tag: int32(x.Tag), req: f.reqs[x.ID()],
			amount: x.Bytes.Value(f.rank, f.nranks),
		}
		o.peer = -1
		switch x.Op {
		case ir.CommSend, ir.CommRecv, ir.CommIsend, ir.CommIrecv:
			if x.Peer.Kind == ir.PeerAny {
				switch x.Op {
				case ir.CommRecv, ir.CommIrecv:
					o.peer = anySource
				default:
					return fmt.Errorf("mpisim: rank %d: %s at %s cannot use the wildcard peer", f.rank, x.Op, x.Debug())
				}
				break
			}
			o.peer = int32(x.Peer.Resolve(f.rank, f.nranks))
			if o.peer < 0 {
				return fmt.Errorf("mpisim: rank %d: %s at %s has no resolvable peer", f.rank, x.Op, x.Debug())
			}
		}
		return f.push(o)

	case *ir.Parallel:
		return f.push(op{kind: opRegion, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID())})

	case *ir.Kernel:
		return f.push(op{kind: opKernel, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()), stream: int32(x.Strm)})

	case *ir.DeviceSync:
		return f.push(op{kind: opDeviceSync, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()), stream: int32(x.Strm)})

	case *ir.Mutex, *ir.Alloc:
		// Lock and allocator traffic outside parallel regions is
		// uncontended; model the holds as plain compute time.
		var cnt, hold float64
		var id ir.NodeID
		switch y := n.(type) {
		case *ir.Mutex:
			cnt, hold, id = y.Count.Value(f.rank, f.nranks), y.Hold.Value(f.rank, f.nranks), y.ID()
		case *ir.Alloc:
			cnt, hold, id = y.Count.Value(f.rank, f.nranks), y.Hold.Value(f.rank, f.nranks), y.ID()
		}
		dur := cnt * hold * mult * f.cfg.slowFor(f.rank)
		if dur <= 0 {
			return nil
		}
		return f.push(op{kind: opCompute, node: id, ctx: f.cct.Intern(ctx, id), amount: dur})

	default:
		return fmt.Errorf("mpisim: unsupported node kind %q", n.Kind())
	}
}

// ---- replay ----

type chanKey struct {
	src, dst, tag int
}

// anySource is the sentinel peer of a wildcard receive (MPI_ANY_SOURCE,
// the DSL's `to any`). Wildcard receives match outside the per-channel
// FIFOs: see matchWild for the deterministic matching rule.
const anySource = -2

// wildKey identifies the wildcard-receive queue of one (receiver, tag).
type wildKey struct {
	dst, tag int
}

// message is a posted send.
type message struct {
	postTime float64
	bytes    float64
	eager    bool
	// arrival is when the payload is available at the receiver (eager only,
	// known at post time).
	arrival float64
	// completion is the matched completion time (both sides), set at match.
	completion float64
	matched    bool
	// provenance for parallel-view inter-process edges
	srcRank     int
	srcNode     ir.NodeID
	matchedRecv *recvPost
}

// recvPost is a posted receive.
type recvPost struct {
	postTime   float64
	completion float64
	matched    bool
	dstRank    int
	dstNode    ir.NodeID
	msg        *message
}

// request is an outstanding non-blocking operation of one rank.
type request struct {
	name  int32
	node  ir.NodeID
	ctx   trace.CtxID
	op    ir.CommKind
	peer  int
	bytes float64
	post  float64
	msg   *message
	rp    *recvPost
}

// done reports whether the request's completion time is known, and the time.
func (rq *request) done() (float64, bool) {
	if rq.msg != nil {
		if rq.msg.eager {
			// Eager sends complete locally at post time; the payload
			// travels independently.
			return rq.post, true
		}
		if rq.msg.matched {
			return rq.msg.completion, true
		}
		return 0, false
	}
	if rq.rp != nil && rq.rp.matched {
		return rq.rp.completion, true
	}
	return 0, false
}

type rankState struct {
	rank   int
	ops    []op
	pc     int
	clock  float64
	events []trace.Event

	// requests in flight, FIFO per name and a global order for Waitall.
	requests map[int32][]*request
	pending  []*request

	// blocking p2p in progress: posted but unmatched.
	postedSend *message
	postedRecv *recvPost

	// GPU stream completion clocks (the CUDA extension).
	streams map[int32]float64

	// collective in progress
	collInstance int // index of next collective instance for this rank
	waitingColl  *collective
	collArrival  float64
}

type collective struct {
	op         ir.CommKind
	arrivals   int
	maxArr     float64
	maxArrRank int
	maxArrNode ir.NodeID
	maxBytes   float64
	done       bool
	completion float64
}

type world struct {
	cfg   Config
	prog  *ir.Program
	cct   *trace.CCT
	ranks []*rankState
	sends map[chanKey][]*message
	recvs map[chanKey][]*recvPost
	// wilds holds posted wildcard receives (peer == anySource) per
	// (receiver, tag), in posting order.
	wilds map[wildKey][]*recvPost
	colls []*collective
	syncs []trace.SyncEdge

	// Fault-injection state: per-rank data quality and per-channel send
	// sequence counters feeding the deterministic drop hash.
	status  []trace.RankStatus
	dropSeq map[chanKey]int
}

// degradeStalls is the stall resolution that replaces DeadlockError when
// fault injection (or AllowPartial) is active: every rank still blocked is
// truncated at its current clock plus the fault timeout, as if the MPI
// runtime noticed the dead peer and gave up. It returns true if it
// truncated anyone.
func (w *world) degradeStalls() bool {
	if w.cfg.Faults == nil && !w.cfg.AllowPartial {
		return false
	}
	timeout := w.cfg.Faults.timeout()
	truncated := false
	for _, rs := range w.ranks {
		if rs.pc >= len(rs.ops) {
			continue
		}
		o := &rs.ops[rs.pc]
		name := "compute"
		if o.kind == opComm {
			name = o.comm().String()
		}
		rs.clock += timeout
		w.status[rs.rank].Stalled = true
		w.status[rs.rank].StallTime = rs.clock
		w.status[rs.rank].StallOp = name
		rs.pc = len(rs.ops)
		truncated = true
	}
	return truncated
}

// crashRank truncates a rank whose crash time has passed: its remaining
// operations never execute.
func (w *world) crashRank(rs *rankState) {
	w.status[rs.rank].Crashed = true
	w.status[rs.rank].CrashTime = rs.clock
	rs.pc = len(rs.ops)
}

func (w *world) replay(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progress := false
		finished := 0
		for _, rs := range w.ranks {
			for w.step(rs) {
				progress = true
			}
			if rs.pc >= len(rs.ops) {
				finished++
			}
		}
		if finished == len(w.ranks) {
			return nil
		}
		if !progress {
			if w.degradeStalls() {
				continue
			}
			return w.deadlock()
		}
	}
}

func (w *world) deadlock() error {
	de := &DeadlockError{}
	for _, rs := range w.ranks {
		if rs.pc >= len(rs.ops) {
			continue
		}
		o := &rs.ops[rs.pc]
		dbg := ""
		if n := w.prog.Node(o.node); n != nil {
			if d, ok := n.(interface{ Debug() string }); ok {
				dbg = d.Debug()
			}
		}
		name := o.comm().String()
		if o.kind != opComm {
			name = "compute"
		}
		de.Blocked = append(de.Blocked, BlockedRank{Rank: rs.rank, Op: name, Debug: dbg})
	}
	return de
}

// step attempts to execute the next op of rs. It returns true if the rank
// made progress (op completed) and false if it is blocked or finished.
func (w *world) step(rs *rankState) bool {
	if rs.pc >= len(rs.ops) {
		return false
	}
	if t, ok := w.cfg.Faults.crashAt(rs.rank); ok && rs.clock >= t {
		w.crashRank(rs)
		return true
	}
	o := &rs.ops[rs.pc]
	switch o.kind {
	case opCompute:
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindCompute,
			Node: o.node, Ctx: o.ctx,
			Start: rs.clock, End: rs.clock + o.amount,
		}, w.cfg)
		rs.clock += o.amount
		rs.pc++
		return true

	case opRegion:
		region := w.prog.Node(o.node).(*ir.Parallel)
		res, err := threadsim.Simulate(w.prog, region, rs.rank, w.cfg.NRanks, w.cfg.Threads, w.cct, o.ctx, rs.clock)
		if err != nil {
			// Flattening validated the region body shape already; a failure
			// here is a programming error in the workload model.
			panic(err)
		}
		rs.events = append(rs.events, res.Events...)
		w.syncs = append(w.syncs, res.Syncs...)
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindRegion,
			Node: o.node, Ctx: o.ctx,
			Start: rs.clock, End: rs.clock + res.Elapsed, Wait: res.LockWait,
		}, w.cfg)
		rs.clock += res.Elapsed
		rs.pc++
		return true

	case opComm:
		return w.stepComm(rs, o)

	case opKernel:
		w.stepKernel(rs, o)
		return true

	case opDeviceSync:
		w.stepDeviceSync(rs, o)
		return true
	}
	return false
}

// stepKernel executes a GPU kernel launch. Synchronous launches block the
// host through transfer + execution; asynchronous launches enqueue the
// work on the stream (including its transfers) and return after the launch
// overhead, overlapping host execution until a DeviceSync.
func (w *world) stepKernel(rs *rankState, o *op) {
	k := w.prog.Node(o.node).(*ir.Kernel)
	if rs.streams == nil {
		rs.streams = map[int32]float64{}
	}
	cost := k.Cost.Value(rs.rank, w.cfg.NRanks)
	h2d := k.H2D.Value(rs.rank, w.cfg.NRanks) / w.cfg.GPUBandwidth
	d2h := k.D2H.Value(rs.rank, w.cfg.NRanks) / w.cfg.GPUBandwidth
	launch := rs.clock
	hostAfterLaunch := launch + w.cfg.GPULaunchOverhead

	start := hostAfterLaunch
	if sc := rs.streams[o.stream]; sc > start {
		start = sc
	}
	end := start + h2d + cost + d2h
	rs.streams[o.stream] = end

	if k.Async {
		rs.clock = hostAfterLaunch
	} else {
		rs.clock = end
	}
	rs.emit(trace.Event{
		Rank: int32(rs.rank), Thread: -1, Kind: trace.KindKernel,
		Node: o.node, Ctx: o.ctx, Start: launch, End: end,
		Bytes: k.H2D.Value(rs.rank, w.cfg.NRanks) + k.D2H.Value(rs.rank, w.cfg.NRanks),
	}, w.cfg)
	rs.pc++
}

// stepDeviceSync blocks the host until the stream (or every stream when
// o.stream < 0) has drained, attributing the delta as wait time.
func (w *world) stepDeviceSync(rs *rankState, o *op) {
	var target float64
	if o.stream < 0 {
		for _, sc := range rs.streams {
			if sc > target {
				target = sc
			}
		}
	} else {
		target = rs.streams[o.stream]
	}
	start := rs.clock
	if target > rs.clock {
		rs.clock = target
	}
	rs.emit(trace.Event{
		Rank: int32(rs.rank), Thread: -1, Kind: trace.KindGPUSync,
		Node: o.node, Ctx: o.ctx, Start: start, End: rs.clock,
		Wait: rs.clock - start,
	}, w.cfg)
	rs.pc++
}

func (rs *rankState) emit(e trace.Event, cfg Config) {
	rs.events = append(rs.events, e)
	rs.clock += cfg.PerEventOverhead
}

func (w *world) stepComm(rs *rankState, o *op) bool {
	switch o.comm() {
	case ir.CommIsend:
		msg := w.postSend(rs, o)
		rq := &request{
			name: o.req, node: o.node, ctx: o.ctx, op: o.comm(),
			peer: int(o.peer), bytes: o.amount, post: rs.clock, msg: msg,
		}
		rs.requests[o.req] = append(rs.requests[o.req], rq)
		rs.pending = append(rs.pending, rq)
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
			Node: o.node, Ctx: o.ctx, Start: rs.clock, End: rs.clock,
			Peer: int32(o.peer), Bytes: o.amount,
		}, w.cfg)
		rs.pc++
		return true

	case ir.CommIrecv:
		rp := w.postRecv(rs, o)
		rq := &request{
			name: o.req, node: o.node, ctx: o.ctx, op: o.comm(),
			peer: int(o.peer), bytes: o.amount, post: rs.clock, rp: rp,
		}
		rs.requests[o.req] = append(rs.requests[o.req], rq)
		rs.pending = append(rs.pending, rq)
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
			Node: o.node, Ctx: o.ctx, Start: rs.clock, End: rs.clock,
			Peer: int32(o.peer), Bytes: o.amount,
		}, w.cfg)
		rs.pc++
		return true

	case ir.CommSend:
		if rs.postedSend == nil {
			rs.postedSend = w.postSend(rs, o)
		}
		msg := rs.postedSend
		var end float64
		if msg.eager {
			end = msg.postTime + o.amount/w.cfg.Bandwidth
		} else if msg.matched {
			end = msg.completion
		} else {
			return false // rendezvous: receiver not there yet
		}
		wait := end - msg.postTime - w.cfg.transfer(o.amount)
		if wait < 0 {
			wait = 0
		}
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
			Node: o.node, Ctx: o.ctx, Start: msg.postTime, End: end, Wait: wait,
			Peer: int32(o.peer), Bytes: o.amount,
		}, w.cfg)
		if !msg.eager && msg.matchedRecv != nil && wait > 0 {
			rp := msg.matchedRecv
			w.syncs = append(w.syncs, trace.SyncEdge{
				Kind:    trace.SyncRendezvous,
				SrcRank: int32(rp.dstRank), SrcThread: -1, SrcNode: rp.dstNode,
				DstRank: int32(rs.rank), DstThread: -1, DstNode: o.node,
				Time: end, Wait: wait, Bytes: o.amount,
			})
		}
		rs.clock = end
		rs.postedSend = nil
		rs.pc++
		return true

	case ir.CommRecv:
		if rs.postedRecv == nil {
			rs.postedRecv = w.postRecv(rs, o)
		}
		rp := rs.postedRecv
		if !rp.matched {
			return false
		}
		end := rp.completion
		wait := end - rp.postTime - w.cfg.transfer(o.amount)
		if wait < 0 {
			wait = 0
		}
		// A wildcard receive learns its actual source at match time; record
		// it so traces attribute the message to the real sender.
		peer := int(o.peer)
		if peer == anySource && rp.msg != nil {
			peer = rp.msg.srcRank
		}
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
			Node: o.node, Ctx: o.ctx, Start: rp.postTime, End: end, Wait: wait,
			Peer: int32(peer), Bytes: o.amount,
		}, w.cfg)
		if rp.msg != nil {
			w.syncs = append(w.syncs, trace.SyncEdge{
				Kind:    trace.SyncMessage,
				SrcRank: int32(rp.msg.srcRank), SrcThread: -1, SrcNode: rp.msg.srcNode,
				DstRank: int32(rs.rank), DstThread: -1, DstNode: o.node,
				Time: end, Wait: wait, Bytes: o.amount,
			})
		}
		rs.clock = end
		rs.postedRecv = nil
		rs.pc++
		return true

	case ir.CommWait:
		reqs := rs.requests[o.req]
		if len(reqs) == 0 {
			// Wait with no outstanding request completes immediately
			// (matching MPI semantics for a null request).
			rs.emit(trace.Event{
				Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
				Node: o.node, Ctx: o.ctx, Start: rs.clock, End: rs.clock,
			}, w.cfg)
			rs.pc++
			return true
		}
		rq := reqs[0]
		t, ok := rq.done()
		if !ok {
			return false
		}
		start := rs.clock
		if t > rs.clock {
			rs.clock = t
		}
		waitPeer := rq.peer
		if waitPeer == anySource && rq.rp != nil && rq.rp.msg != nil {
			waitPeer = rq.rp.msg.srcRank
		}
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
			Node: o.node, Ctx: o.ctx, Start: start, End: rs.clock,
			Wait: rs.clock - start, Peer: int32(waitPeer), Bytes: rq.bytes,
		}, w.cfg)
		w.recordRequestSync(rs, o.node, rq, start)
		rs.requests[o.req] = reqs[1:]
		rs.removePending(rq)
		rs.pc++
		return true

	case ir.CommWaitall:
		var latest float64
		for _, rq := range rs.pending {
			t, ok := rq.done()
			if !ok {
				return false
			}
			if t > latest {
				latest = t
			}
		}
		start := rs.clock
		if latest > rs.clock {
			rs.clock = latest
		}
		rs.emit(trace.Event{
			Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
			Node: o.node, Ctx: o.ctx, Start: start, End: rs.clock,
			Wait: rs.clock - start, Peer: -1,
		}, w.cfg)
		for _, rq := range rs.pending {
			w.recordRequestSync(rs, o.node, rq, start)
		}
		rs.pending = rs.pending[:0]
		for k := range rs.requests {
			delete(rs.requests, k)
		}
		rs.pc++
		return true

	default: // collectives
		return w.stepCollective(rs, o)
	}
}

func (w *world) stepCollective(rs *rankState, o *op) bool {
	if rs.waitingColl == nil {
		// Arrive at this rank's next collective instance.
		for len(w.colls) <= rs.collInstance {
			w.colls = append(w.colls, &collective{op: o.comm()})
		}
		coll := w.colls[rs.collInstance]
		if coll.arrivals == 0 {
			coll.op = o.comm()
		} else if coll.op != o.comm() {
			// Mismatched collectives: a real MPI program would hang or
			// crash; surface it as a deadlock with context by refusing to
			// progress this rank.
			return false
		}
		coll.arrivals++
		if coll.arrivals == 1 || rs.clock > coll.maxArr {
			coll.maxArr = rs.clock
			coll.maxArrRank = rs.rank
			coll.maxArrNode = o.node
		}
		if o.amount > coll.maxBytes {
			coll.maxBytes = o.amount
		}
		if coll.arrivals == len(w.ranks) {
			coll.done = true
			coll.completion = coll.maxArr + w.cfg.collectiveCost(coll.op, coll.maxBytes, len(w.ranks))
		}
		rs.waitingColl = coll
		rs.collArrival = rs.clock
		rs.collInstance++
	}
	coll := rs.waitingColl
	if !coll.done {
		return false
	}
	start := rs.collArrival
	cost := w.cfg.collectiveCost(coll.op, coll.maxBytes, len(w.ranks))
	wait := coll.completion - start - cost
	if wait < 0 {
		wait = 0
	}
	rs.clock = coll.completion
	rs.emit(trace.Event{
		Rank: int32(rs.rank), Thread: -1, Kind: trace.KindComm, Op: o.comm(),
		Node: o.node, Ctx: o.ctx, Start: start, End: coll.completion,
		Wait: wait, Peer: -1, Bytes: o.amount,
	}, w.cfg)
	if rs.rank != coll.maxArrRank && wait > 0 {
		w.syncs = append(w.syncs, trace.SyncEdge{
			Kind:    trace.SyncCollective,
			SrcRank: int32(coll.maxArrRank), SrcThread: -1, SrcNode: coll.maxArrNode,
			DstRank: int32(rs.rank), DstThread: -1, DstNode: o.node,
			Time: coll.completion, Wait: wait, Bytes: o.amount,
		})
	}
	rs.waitingColl = nil
	rs.pc++
	return true
}

// recordRequestSync emits the inter-process dependence realized when a
// Wait/Waitall retires request rq at waitNode. Receive requests point from
// the remote sender; rendezvous send requests point from the remote
// receiver whose late post delayed the transfer.
func (w *world) recordRequestSync(rs *rankState, waitNode ir.NodeID, rq *request, waitStart float64) {
	t, ok := rq.done()
	if !ok {
		return
	}
	wait := t - waitStart
	if wait < 0 {
		wait = 0
	}
	if rq.rp != nil && rq.rp.msg != nil {
		m := rq.rp.msg
		w.syncs = append(w.syncs, trace.SyncEdge{
			Kind:    trace.SyncMessage,
			SrcRank: int32(m.srcRank), SrcThread: -1, SrcNode: m.srcNode,
			DstRank: int32(rs.rank), DstThread: -1, DstNode: waitNode,
			Time: t, Wait: wait, Bytes: rq.bytes,
		})
		return
	}
	if rq.msg != nil && !rq.msg.eager && rq.msg.matchedRecv != nil {
		rp := rq.msg.matchedRecv
		w.syncs = append(w.syncs, trace.SyncEdge{
			Kind:    trace.SyncRendezvous,
			SrcRank: int32(rp.dstRank), SrcThread: -1, SrcNode: rp.dstNode,
			DstRank: int32(rs.rank), DstThread: -1, DstNode: waitNode,
			Time: t, Wait: wait, Bytes: rq.bytes,
		})
	}
}

func (rs *rankState) removePending(rq *request) {
	for i, p := range rs.pending {
		if p == rq {
			rs.pending = append(rs.pending[:i], rs.pending[i+1:]...)
			return
		}
	}
}

// postSend deposits a send into the channel and matches FIFO if a receive
// is already posted.
func (w *world) postSend(rs *rankState, o *op) *message {
	k := chanKey{src: rs.rank, dst: int(o.peer), tag: int(o.tag)}
	msg := &message{
		postTime: rs.clock,
		bytes:    o.amount,
		eager:    o.amount <= w.cfg.EagerThreshold,
		srcRank:  rs.rank,
		srcNode:  o.node,
	}
	if w.cfg.Faults != nil {
		seq := w.dropSeq[k]
		w.dropSeq[k] = seq + 1
		if w.cfg.Faults.dropMessage(rs.rank, int(o.peer), int(o.tag), seq, rs.clock) {
			// The payload vanishes: it never enters the channel, so the
			// receiver blocks until stall resolution truncates it. The
			// sender observes a timeout instead of a completion.
			msg.eager = false
			msg.matched = true
			msg.completion = rs.clock + w.cfg.Faults.timeout()
			w.status[rs.rank].DroppedMsgs++
			return msg
		}
	}
	if msg.eager {
		msg.arrival = rs.clock + w.cfg.transfer(o.amount)
	}
	w.sends[k] = append(w.sends[k], msg)
	w.match(k)
	w.matchWild(k.dst, k.tag)
	return msg
}

// postRecv deposits a receive into the channel and matches FIFO if a send
// is already posted. A wildcard receive (o.peer == anySource) goes to the
// per-(receiver, tag) wildcard queue instead of a concrete channel.
func (w *world) postRecv(rs *rankState, o *op) *recvPost {
	rp := &recvPost{postTime: rs.clock, dstRank: rs.rank, dstNode: o.node}
	if o.peer == anySource {
		wk := wildKey{dst: rs.rank, tag: int(o.tag)}
		w.wilds[wk] = append(w.wilds[wk], rp)
		w.matchWild(rs.rank, int(o.tag))
		return rp
	}
	k := chanKey{src: int(o.peer), dst: rs.rank, tag: int(o.tag)}
	w.recvs[k] = append(w.recvs[k], rp)
	w.match(k)
	return rp
}

// match pairs posted sends and receives FIFO on channel k and computes the
// completion times of newly matched pairs.
func (w *world) match(k chanKey) {
	ss, rr := w.sends[k], w.recvs[k]
	for len(ss) > 0 && len(rr) > 0 {
		msg, rp := ss[0], rr[0]
		ss, rr = ss[1:], rr[1:]
		w.matchPair(msg, rp)
	}
	w.sends[k], w.recvs[k] = ss, rr
}

// matchWild pairs wildcard receives of (dst, tag) with posted sends. The
// matching rule is deterministic so replays and reports are stable: each
// wildcard receive takes the unmatched send with the EARLIEST post time
// among all sources, ties broken by the lowest source rank. Concrete
// receives on a channel still have priority — match(k) runs before
// matchWild at every send post — so a wildcard only consumes sends no
// concrete receive was waiting for.
func (w *world) matchWild(dst, tag int) {
	wk := wildKey{dst: dst, tag: tag}
	for len(w.wilds[wk]) > 0 {
		var bestK chanKey
		found := false
		for k, ss := range w.sends {
			if k.dst != dst || k.tag != tag || len(ss) == 0 {
				continue
			}
			if !found || ss[0].postTime < w.sends[bestK][0].postTime ||
				(ss[0].postTime == w.sends[bestK][0].postTime && k.src < bestK.src) {
				bestK, found = k, true
			}
		}
		if !found {
			return
		}
		rp := w.wilds[wk][0]
		w.wilds[wk] = w.wilds[wk][1:]
		msg := w.sends[bestK][0]
		w.sends[bestK] = w.sends[bestK][1:]
		w.matchPair(msg, rp)
	}
}

// matchPair computes the completion times of one newly matched send/receive
// pair. Both sides must already be removed from their queues.
func (w *world) matchPair(msg *message, rp *recvPost) {
	msg.matchedRecv = rp
	rp.msg = msg
	if msg.eager {
		// Payload already in flight; receive completes when both the
		// payload has arrived and the receive was posted.
		c := msg.arrival
		if rp.postTime > c {
			c = rp.postTime
		}
		rp.completion = c
		rp.matched = true
		msg.completion = msg.postTime // sender side completed long ago
		msg.matched = true
	} else {
		// Rendezvous: the transfer starts when both sides are present.
		startT := msg.postTime
		if rp.postTime > startT {
			startT = rp.postTime
		}
		c := startT + w.cfg.transfer(msg.bytes)
		msg.completion = c
		msg.matched = true
		rp.completion = c
		rp.matched = true
	}
}

// Speedup computes T(base)/T(run) from two runs of the same program,
// the paper's scalability metric (e.g. ZeusMP's 72.57x on 2048 vs 16).
func Speedup(base, run *trace.Run) float64 {
	t := run.TotalTime()
	if t == 0 {
		return 0
	}
	return base.TotalTime() / t
}
