// Package pag implements the Program Abstraction Graph of the paper (§3):
// a typed, attributed digraph representing the performance of one program
// execution. Vertices are code snippets and control structures (functions,
// calls, loops, branches, computation, thread regions); edges are
// intra-procedural control flow, inter-procedural call relations,
// inter-thread dependences, and inter-process communications.
//
// Two views are provided (§3.4): the top-down view (intra- and inter-
// procedural edges only), built statically from the IR and populated with
// performance data by embedding (§3.3); and the parallel view, built from a
// recorded run by generating a flow per process/thread and adding the
// inter-process and inter-thread edges recorded by the simulators.
package pag

import (
	"cmp"
	"fmt"
	"slices"

	"perflow/internal/graph"
	"perflow/internal/ir"
)

// Vertex labels (paper §3.1: function, call with subtypes, loop,
// instruction; plus the parallel-view-only resource vertices).
const (
	VertexFunc = iota
	VertexCall
	VertexCommCall // communication function call (MPI_*)
	VertexExternalCall
	VertexIndirectCall
	VertexLoop
	VertexBranch
	VertexCompute // "instruction" vertices
	VertexParallel
	VertexMutex
	VertexAlloc
	// VertexResource models a contended shared resource (a lock) in the
	// parallel view; the contention-detection pattern is anchored on it.
	VertexResource
	// VertexKernel is a GPU kernel launch (the CUDA extension).
	VertexKernel
	// VertexDeviceSync is a host-side GPU synchronization point.
	VertexDeviceSync
)

// VertexLabelName returns a human-readable label name.
func VertexLabelName(l int) string {
	switch l {
	case VertexFunc:
		return "function"
	case VertexCall:
		return "call"
	case VertexCommCall:
		return "comm"
	case VertexExternalCall:
		return "external"
	case VertexIndirectCall:
		return "indirect"
	case VertexLoop:
		return "loop"
	case VertexBranch:
		return "branch"
	case VertexCompute:
		return "compute"
	case VertexParallel:
		return "parallel"
	case VertexMutex:
		return "mutex"
	case VertexAlloc:
		return "alloc"
	case VertexResource:
		return "resource"
	case VertexKernel:
		return "kernel"
	case VertexDeviceSync:
		return "devicesync"
	default:
		return fmt.Sprintf("label(%d)", l)
	}
}

// Edge labels (paper §3.1).
const (
	EdgeIntraProc = iota
	EdgeInterProc
	EdgeInterThread
	EdgeInterProcess
)

// EdgeLabelName returns a human-readable edge label name.
func EdgeLabelName(l int) string {
	switch l {
	case EdgeIntraProc:
		return "intra-procedural"
	case EdgeInterProc:
		return "inter-procedural"
	case EdgeInterThread:
		return "inter-thread"
	case EdgeInterProcess:
		return "inter-process"
	default:
		return fmt.Sprintf("edge(%d)", l)
	}
}

// Well-known metric names stored on PAG vertices and edges.
const (
	MetricTime      = "time"  // inclusive time (µs, summed over ranks)
	MetricExclTime  = "etime" // exclusive time (leaf events only)
	MetricWait      = "wait"  // waiting/blocked time
	MetricCount     = "count" // event occurrences
	MetricBytes     = "bytes" // communication volume
	MetricCycles    = "cycles"
	MetricInstrs    = "instructions"
	MetricCacheMiss = "cache_misses"
	MetricRank      = "rank"   // parallel view: owning process
	MetricThread    = "thread" // parallel view: owning thread (-1 at rank level)
)

// Well-known string attribute keys.
const (
	AttrDebug      = "debug" // "file:line"
	AttrKind       = "kind"  // IR node kind tag
	AttrUnresolved = "unresolved"
	AttrLock       = "lock" // resource vertices: lock name
	AttrLint       = "lint" // "CODE: message" findings attached by AttachDiagnostics
)

// View distinguishes the two PAG views.
type View int

// Views of a PAG.
const (
	TopDown View = iota
	Parallel
)

// String names the view.
func (v View) String() string {
	if v == Parallel {
		return "parallel"
	}
	return "top-down"
}

// PAG is a Program Abstraction Graph: the underlying property graph plus
// the mappings back to the program IR.
type PAG struct {
	G    *graph.Graph
	Prog *ir.Program
	View View

	NRanks   int
	NThreads int

	// byNode maps IR node IDs to top-down vertices (top-down view only).
	byNode []graph.VertexID
	// nodeOf maps every vertex back to its IR node (NoNode for synthetic
	// vertices such as resources).
	nodeOf []ir.NodeID
	// flowOff and flows are the parallel view's flow index, node-major:
	// the flow vertices of IR node n are flows[flowOff[n]:flowOff[n+1]].
	flowOff []int32
	flows   []Flow
}

// FlowKey identifies a parallel-view flow vertex.
type FlowKey struct {
	Rank   int32
	Thread int32 // -1 at rank level
	Node   ir.NodeID
}

// Flow is one entry of the flow index: the vertex V of an IR node on the
// flow of (Rank, Thread).
type Flow struct {
	Rank, Thread int32
	V            graph.VertexID
}

// VertexOf returns the top-down vertex for an IR node, or NoVertex.
func (p *PAG) VertexOf(n ir.NodeID) graph.VertexID {
	if p.byNode == nil || n < 0 || int(n) >= len(p.byNode) {
		return graph.NoVertex
	}
	return p.byNode[n]
}

// NodeOf returns the IR node behind a vertex, or ir.NoNode for synthetic
// vertices.
func (p *PAG) NodeOf(v graph.VertexID) ir.NodeID {
	if v < 0 || int(v) >= len(p.nodeOf) {
		return ir.NoNode
	}
	return p.nodeOf[v]
}

// Flows returns the flow vertices of IR node n sorted by (rank, thread),
// thread -1 (the rank level) first; none outside a parallel view. The
// slice is owned by p.
func (p *PAG) Flows(n ir.NodeID) []Flow {
	if n < 0 || int(n) >= len(p.flowOff)-1 {
		return nil
	}
	return p.flows[p.flowOff[n]:p.flowOff[n+1]]
}

// FlowVertex returns the parallel-view vertex for (rank, thread, node), or
// NoVertex.
func (p *PAG) FlowVertex(rank, thread int32, n ir.NodeID) graph.VertexID {
	fs := p.Flows(n)
	if i, ok := slices.BinarySearchFunc(fs, Flow{Rank: rank, Thread: thread}, cmpFlow); ok {
		return fs[i].V
	}
	return graph.NoVertex
}

func cmpFlow(a, b Flow) int {
	return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Thread, b.Thread))
}

// indexFlows builds the flow index from nodeOf and the rank and thread
// columns: every vertex with an IR node and both metrics is the flow
// vertex of its (rank, thread, node). A key two vertices share, which only
// a hand-made file can hold, keeps both.
func (p *PAG) indexFlows() {
	rank, thread := p.G.MetricColumn(MetricRank), p.G.MetricColumn(MetricThread)
	flowOf := func(v int) (Flow, bool) {
		r, okR := rank.Lookup(graph.VertexID(v))
		t, okT := thread.Lookup(graph.VertexID(v))
		return Flow{int32(r), int32(t), graph.VertexID(v)}, okR && okT && p.nodeOf[v] >= 0
	}
	off := []int32{0} // per node: its flow count, then its first flow
	for v, n := range p.nodeOf {
		if _, ok := flowOf(v); ok {
			for int(n)+1 >= len(off) {
				off = append(off, 0)
			}
			off[n+1]++
		}
	}
	for n := 1; n < len(off); n++ {
		off[n] += off[n-1]
	}
	flows, next := make([]Flow, off[len(off)-1]), slices.Clone(off)
	for v, n := range p.nodeOf {
		if f, ok := flowOf(v); ok {
			flows[next[n]] = f
			next[n]++
		}
	}
	for n := 0; n+1 < len(off); n++ {
		slices.SortFunc(flows[off[n]:off[n+1]], cmpFlow)
	}
	p.flowOff, p.flows = off, flows
}

// labelFor maps an IR node to its PAG vertex label.
func labelFor(n ir.Node) int {
	switch x := n.(type) {
	case *ir.Function:
		return VertexFunc
	case *ir.Loop:
		return VertexLoop
	case *ir.Branch:
		return VertexBranch
	case *ir.Compute:
		return VertexCompute
	case *ir.Parallel:
		return VertexParallel
	case *ir.Mutex:
		return VertexMutex
	case *ir.Alloc:
		return VertexAlloc
	case *ir.Comm:
		return VertexCommCall
	case *ir.Kernel:
		return VertexKernel
	case *ir.DeviceSync:
		return VertexDeviceSync
	case *ir.Call:
		switch {
		case x.Indirect:
			return VertexIndirectCall
		case x.External:
			return VertexExternalCall
		default:
			return VertexCall
		}
	default:
		return VertexCompute
	}
}

// addIRVertex creates a vertex for an IR node with identity attributes set.
func (p *PAG) addIRVertex(n ir.Node) graph.VertexID {
	id := addIRVertexTo(p.G, n)
	p.nodeOf = append(p.nodeOf, nodeInfo(n).ID())
	return id
}

// addIRVertexTo adds the vertex for an IR node to an arbitrary graph — the
// final PAG or a per-rank build shard — with identity attributes set.
func addIRVertexTo(g *graph.Graph, n ir.Node) graph.VertexID {
	info := nodeInfo(n)
	id := g.AddVertex(info.Name, labelFor(n))
	v := g.Vertex(id)
	if dbg := info.Debug(); dbg != "" {
		v.SetAttr(AttrDebug, dbg)
	}
	v.SetAttr(AttrKind, n.Kind())
	return id
}

// nodeInfo extracts the shared Info of any IR node.
func nodeInfo(n ir.Node) *ir.Info { return ir.InfoOf(n) }

// Derive returns a PAG over a different property graph that preserves p's
// vertex indexing (graph-difference results have exactly g1's vertex
// order), so node mappings carry over. Extra vertices in g beyond p's map
// to no node.
func (p *PAG) Derive(g *graph.Graph, nranks int) *PAG {
	d := &PAG{
		G:        g,
		Prog:     p.Prog,
		View:     p.View,
		NRanks:   nranks,
		NThreads: p.NThreads,
		byNode:   p.byNode,
	}
	d.nodeOf = make([]ir.NodeID, g.NumVertices())
	for i := range d.nodeOf {
		if i < len(p.nodeOf) {
			d.nodeOf[i] = p.nodeOf[i]
		} else {
			d.nodeOf[i] = ir.NoNode
		}
	}
	return d
}

// Size reports |V| and |E|, the numbers of Table 2.
func (p *PAG) Size() (nv, ne int) {
	return p.G.NumVertices(), p.G.NumEdges()
}

// SerializedSize returns the storage cost of the PAG in bytes (the space
// cost of Table 1).
func (p *PAG) SerializedSize() int64 {
	return p.G.SerializedSize()
}
