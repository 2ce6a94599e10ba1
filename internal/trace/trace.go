// Package trace defines the runtime event model shared by the MPI and
// thread simulators, the PerFlow collector, and the tracing-based baseline.
//
// Every event carries an interned calling context (a path of IR node IDs
// from the entry function down to the event's node), which is what
// performance-data embedding resolves against the PAG (paper §3.3). Virtual
// time is in microseconds.
package trace

import (
	"fmt"

	"perflow/internal/ir"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	KindCompute Kind = iota // a computation segment
	KindComm                // an MPI operation
	KindLock                // an explicit mutex critical section
	KindAlloc               // an allocator call batch (implicit heap lock)
	KindRegion              // a thread-parallel region on the spawning rank
	KindKernel              // a GPU kernel (span = launch to completion)
	KindGPUSync             // a host-side device/stream synchronization
)

// String returns a short tag for the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindComm:
		return "comm"
	case KindLock:
		return "lock"
	case KindAlloc:
		return "alloc"
	case KindRegion:
		return "region"
	case KindKernel:
		return "kernel"
	case KindGPUSync:
		return "gpusync"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// CtxID identifies an interned calling context in a CCT. NoCtx is the
// parent of top-level contexts.
type CtxID int32

// NoCtx is the invalid / root-parent context.
const NoCtx CtxID = -1

// Event is one recorded runtime occurrence.
type Event struct {
	Rank   int32
	Thread int32 // -1 outside thread-parallel regions
	Kind   Kind
	Node   ir.NodeID // IR node the event belongs to
	Ctx    CtxID     // calling context (leaf includes Node)

	Start float64 // virtual µs
	End   float64
	Wait  float64 // waiting/blocked component of End-Start

	// Communication detail (KindComm).
	Op    ir.CommKind
	Peer  int32 // remote rank, -1 for collectives
	Bytes float64

	// Count for batched events (allocator call batches).
	Count int32
}

// Dur returns the event duration.
func (e *Event) Dur() float64 { return e.End - e.Start }

// CCT is a calling-context tree interning call paths as in HPCToolkit-style
// profilers. It is append-only and not safe for concurrent use.
type CCT struct {
	parents []CtxID
	nodes   []ir.NodeID
	// children index: map from (parent, node) to ctx
	index map[cctKey]CtxID
}

type cctKey struct {
	parent CtxID
	node   ir.NodeID
}

// NewCCT returns an empty calling-context tree.
func NewCCT() *CCT {
	return &CCT{index: make(map[cctKey]CtxID, 64)}
}

// Intern returns the context for node called from parent, creating it if
// needed. Pass NoCtx as parent for a top-level frame.
func (t *CCT) Intern(parent CtxID, node ir.NodeID) CtxID {
	k := cctKey{parent, node}
	if id, ok := t.index[k]; ok {
		return id
	}
	id := CtxID(len(t.nodes))
	t.parents = append(t.parents, parent)
	t.nodes = append(t.nodes, node)
	t.index[k] = id
	return id
}

// Len returns the number of interned contexts.
func (t *CCT) Len() int { return len(t.nodes) }

// Parent returns the parent context of ctx (NoCtx for top-level frames).
func (t *CCT) Parent(ctx CtxID) CtxID {
	if ctx < 0 || int(ctx) >= len(t.parents) {
		return NoCtx
	}
	return t.parents[ctx]
}

// Node returns the IR node of the context frame.
func (t *CCT) Node(ctx CtxID) ir.NodeID {
	if ctx < 0 || int(ctx) >= len(t.nodes) {
		return ir.NoNode
	}
	return t.nodes[ctx]
}

// Path returns the root-to-leaf node path of ctx.
func (t *CCT) Path(ctx CtxID) []ir.NodeID {
	var rev []ir.NodeID
	for c := ctx; c != NoCtx; c = t.Parent(c) {
		rev = append(rev, t.Node(c))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// SyncKind classifies a cross-flow synchronization dependence.
type SyncKind int

// Synchronization edge kinds.
const (
	SyncMessage    SyncKind = iota // point-to-point message delayed the receiver
	SyncRendezvous                 // late receiver delayed a blocking sender
	SyncCollective                 // slowest arrival delayed a collective
	SyncLock                       // lock holder delayed a waiter (inter-thread)
)

// SyncEdge records that the activity at (SrcRank, SrcThread, SrcNode)
// delayed (or fed data to) the activity at (DstRank, DstThread, DstNode).
// These are the inter-process and inter-thread edges of the parallel view
// of the PAG (paper §3.4), the substrate of backtracking and causal
// analysis.
type SyncEdge struct {
	Kind                 SyncKind
	SrcRank, DstRank     int32
	SrcThread, DstThread int32 // -1 at rank level
	SrcNode, DstNode     ir.NodeID
	Time                 float64 // when the dependence resolved
	Wait                 float64 // waiting time it imposed on the destination
	Bytes                float64
	Lock                 string // lock name for SyncLock
}

// RankStatus records the data quality of one rank's event stream. The
// zero value means the stream is clean and complete. Statuses are set by
// fault injection (internal/mpisim).
type RankStatus struct {
	Crashed bool // rank stopped executing at CrashTime (fault injection)
	Stalled bool // truncated while blocked on a dead or silent peer
	// Salvaged marks a stream recovered from a damaged trace. No code sets
	// it; collector.Coverage and the diff summary's salvaged_ranks fact
	// still read it, so it reads false in every run.
	Salvaged bool

	CrashTime float64 // virtual µs at which the rank died
	StallTime float64 // virtual µs at which the runtime gave up waiting
	StallOp   string  // operation the rank was blocked in when truncated

	DroppedMsgs int // messages sent by this rank that the network dropped
	// LostEvents counts events a damaged stream lost. No code sets it;
	// collector.Coverage and the lost_events fact still read it.
	LostEvents int

	// SlowFactor is the injected compute dilation (0 or 1 = none). A slow
	// rank's data is complete but its timing is perturbed.
	SlowFactor float64
}

// Incomplete reports whether the stream is missing events: the analysis
// layers tag metrics derived from such ranks with the data_quality
// attribute.
func (s RankStatus) Incomplete() bool {
	return s.Crashed || s.Stalled || s.Salvaged || s.LostEvents > 0
}

// Clean reports whether the status carries no degradation or perturbation
// at all.
func (s RankStatus) Clean() bool {
	return !s.Incomplete() && s.DroppedMsgs == 0 && (s.SlowFactor == 0 || s.SlowFactor == 1)
}

// Run is the complete recorded execution of a program: the event streams of
// all ranks plus shared metadata.
type Run struct {
	Program *ir.Program
	NRanks  int
	// ThreadsPerRank is the thread count used inside parallel regions.
	ThreadsPerRank int
	CCT            *CCT
	Events         [][]Event // per rank, in increasing Start order
	// Syncs are the recorded cross-flow dependences.
	Syncs []SyncEdge
	// Elapsed is the per-rank finishing time (virtual µs).
	Elapsed []float64
	// Status is the per-rank data quality; nil for a clean run.
	Status []RankStatus
}

// Degraded reports whether any rank's data is incomplete or perturbed by
// message loss.
func (r *Run) Degraded() bool {
	for _, s := range r.Status {
		if s.Incomplete() || s.DroppedMsgs > 0 {
			return true
		}
	}
	return false
}

// DegradedRanks returns the ranks (ascending) whose streams are incomplete.
func (r *Run) DegradedRanks() []int {
	var out []int
	for i, s := range r.Status {
		if s.Incomplete() {
			out = append(out, i)
		}
	}
	return out
}

// TotalTime returns the virtual makespan: the maximum per-rank elapsed time.
func (r *Run) TotalTime() float64 {
	var m float64
	for _, e := range r.Elapsed {
		if e > m {
			m = e
		}
	}
	return m
}

// eventWireSize is the per-event cost in bytes of the storage model:
// rank(4) thread(4) kind(1) op(1) node(4) ctx(4) start(8) end(8) wait(8)
// peer(4) bytes(8) count(4).
const eventWireSize = 58

// EncodedSize is the storage-cost model of a trace: a 16-byte header,
// eventWireSize bytes per event and 4 bytes per stream. It is not a wire
// format; it is what "storage cost of a trace" means in this repo, the
// Scalasca-like baseline's side of the paper's §5.3 comparison (57.64 GB
// of traces vs 2.4 MB of PAG).
func (r *Run) EncodedSize() int64 {
	return int64(16) + int64(r.NumEvents())*eventWireSize + int64(len(r.Events))*4
}

// NumEvents returns the total event count across ranks.
func (r *Run) NumEvents() int {
	n := 0
	for _, evs := range r.Events {
		n += len(evs)
	}
	return n
}

// ForEach calls fn for every event of every rank.
func (r *Run) ForEach(fn func(*Event)) {
	for ri := range r.Events {
		evs := r.Events[ri]
		for i := range evs {
			fn(&evs[i])
		}
	}
}

// Stats aggregates run-level numbers used in reports.
type Stats struct {
	TotalTime    float64
	CommTime     float64 // summed across ranks
	ComputeTime  float64
	WaitTime     float64
	CommFraction float64 // comm time / (comm + compute) summed
	Events       int
}

// ComputeStats scans the run once and returns aggregates.
func (r *Run) ComputeStats() Stats {
	var s Stats
	s.TotalTime = r.TotalTime()
	s.Events = r.NumEvents()
	r.ForEach(func(e *Event) {
		switch e.Kind {
		case KindComm:
			s.CommTime += e.Dur()
		case KindCompute, KindRegion:
			s.ComputeTime += e.Dur()
		}
		s.WaitTime += e.Wait
	})
	if tot := s.CommTime + s.ComputeTime; tot > 0 {
		s.CommFraction = s.CommTime / tot
	}
	return s
}
