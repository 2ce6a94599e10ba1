package pag

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/trace"
)

// BuildOptions parameterizes parallel-view construction.
type BuildOptions struct {
	// Parallelism bounds the worker pool that ingests per-rank event
	// streams; <= 0 uses all available cores, 1 forces the sequential path.
	// The built PAG is byte-identical at every setting: each rank's flow is
	// accumulated in its own shard and shards merge in rank order.
	Parallelism int
}

// BuildParallel constructs the parallel view of the PAG (paper §3.4,
// Figure 5) from a recorded run using all available cores:
//
//  1. one flow per process and per thread — the sequence of vertices the
//     flow visited, in time order, with repeated visits to the same code
//     aggregated into a single vertex carrying counts and times;
//  2. intra-flow edges linking consecutive vertices of each flow;
//  3. inter-thread edges from a parallel-region vertex to each of its
//     thread flows and from thread flows back to the join point;
//  4. inter-process edges for every recorded message, rendezvous and
//     collective dependence, and inter-thread edges through synthetic
//     resource vertices for lock contention (the shape the contention-
//     detection pattern matches).
func BuildParallel(run *trace.Run) *PAG {
	return BuildParallelOpts(run, BuildOptions{})
}

// BuildParallelOpts is BuildParallel with an explicit parallelism bound.
//
// Construction is sharded: every rank's event stream — vertices, intra-flow
// and fork/join edges, metric accumulation — only ever touches that rank's
// shard, so phase 1 runs embarrassingly parallel across a bounded worker
// pool. Shards are then merged into the final graph in rank order (vertex
// and edge IDs come out exactly as a sequential rank-by-rank build would
// assign them), and the cross-rank phases — sync edges and resource
// vertices — run on the merged graph. Output is deterministic and identical
// for every Parallelism value.
func BuildParallelOpts(run *trace.Run, opts BuildOptions) *PAG {
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := buildShards(run, workers)

	totalV, totalE := 0, 0
	for _, sh := range shards {
		totalV += sh.g.NumVertices()
		totalE += sh.g.NumEdges()
	}
	p := &PAG{
		G:        graph.New(totalV+64, totalE+len(run.Syncs)+64),
		Prog:     run.Program,
		View:     Parallel,
		NRanks:   run.NRanks,
		NThreads: run.ThreadsPerRank,
	}
	p.nodeOf = make([]ir.NodeID, 0, totalV+64)
	b := &mergedBuilder{
		p:       p,
		run:     run,
		shards:  shards,
		offs:    make([]graph.VertexID, len(shards)),
		extra:   map[FlowKey]graph.VertexID{},
		streams: make(map[flowID][]graph.VertexID, 2*len(shards)),
		edgeIdx: make(map[edgeKey]graph.EdgeID, totalE+len(run.Syncs)),
	}

	// Deterministic merge: shards append in rank order, which reproduces the
	// IDs a sequential rank-by-rank build assigns. Each shard's metric and
	// attribute columns are copied as one range per key.
	for r, sh := range shards {
		off := graph.VertexID(p.G.NumVertices())
		eoff := graph.EdgeID(p.G.NumEdges())
		b.offs[r] = off
		for lv := 0; lv < sh.g.NumVertices(); lv++ {
			v := sh.g.Vertex(graph.VertexID(lv))
			p.G.AddVertex(v.Name, v.Label)
		}
		p.nodeOf = append(p.nodeOf, sh.nodeOf...)
		for le := 0; le < sh.g.NumEdges(); le++ {
			e := sh.g.Edge(graph.EdgeID(le))
			id := p.G.AddEdge(off+e.Src, off+e.Dst, e.Label)
			b.edgeIdx[edgeKey{off + e.Src, off + e.Dst, e.Label}] = id
		}
		p.G.CopyMetricsFrom(sh.g, off, eoff)
		for th, stream := range sh.streams {
			gs := make([]graph.VertexID, len(stream))
			for i, v := range stream {
				gs[i] = off + v
			}
			b.streams[flowID{rank: sh.rank, thread: th}] = gs
		}
	}

	b.addSyncEdges()
	b.addResourceVertices()
	p.indexFlows()
	return p
}

// buildShards ingests every rank's event stream into its own shard, using a
// pool of at most `workers` goroutines over an atomic work counter.
func buildShards(run *trace.Run, workers int) []*rankShard {
	shards := make([]*rankShard, len(run.Events))
	forEachRank(len(shards), workers, func(r int) {
		shards[r] = buildRankShard(run, int32(r))
	})
	return shards
}

// forEachRank runs fn(r) for every r in [0, n) on a pool of at most
// `workers` goroutines fed by an atomic work counter; workers <= 1 runs
// inline. fn must only touch rank-r state.
func forEachRank(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for r := 0; r < n; r++ {
			fn(r)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1) - 1)
				if r >= n {
					return
				}
				fn(r)
			}
		}()
	}
	wg.Wait()
}

// flowID identifies one flow (rank-level when thread == -1).
type flowID struct {
	rank   int32
	thread int32
}

// edgeKey identifies an aggregated edge for O(1) ensureEdge dedup (the old
// builder scanned the source's out-edge list per event).
type edgeKey struct {
	src, dst graph.VertexID
	label    int
}

// rankShard accumulates one rank's flows in a private graph with local
// vertex and edge IDs. No shard ever touches another shard's state, so
// shards build concurrently without synchronization.
type rankShard struct {
	run  *trace.Run
	rank int32

	g          *graph.Graph
	nodeOf     []ir.NodeID                // per local vertex
	flowIdx    map[FlowKey]graph.VertexID // (rank,thread,node) -> local vertex
	edgeIdx    map[edgeKey]graph.EdgeID   // aggregated-edge dedup index
	streams    map[int32][]graph.VertexID // per thread: flow vertex sequence
	inStream   []bool                     // per local vertex: already in its stream
	lastInFlow map[int32]graph.VertexID   // per thread: last vertex visited

	// pendingJoins are thread-flow tails waiting for the next rank-level
	// vertex to join to.
	pendingJoins []graph.VertexID
}

func buildRankShard(run *trace.Run, rank int32) *rankShard {
	evs := run.Events[rank]
	// Size the shard from its input: a flow vertex is a (thread, node) pair
	// the rank's events visit, so the smaller of the event count and the
	// node count times the flows estimates the vertex count from above.
	// Edges are about as many (a chain per flow). These are capacity
	// hints, not limits.
	n := min(len(evs), run.Program.NumNodes()*(run.ThreadsPerRank+1))
	sh := &rankShard{
		run:        run,
		rank:       rank,
		g:          graph.New(n, n),
		flowIdx:    make(map[FlowKey]graph.VertexID, n),
		edgeIdx:    make(map[edgeKey]graph.EdgeID, n),
		streams:    make(map[int32][]graph.VertexID, 2),
		lastInFlow: make(map[int32]graph.VertexID, 2),
	}
	sh.build(evs)
	return sh
}

// vertexFor returns (creating if needed) the flow vertex for an event's
// (thread, node) on this shard's rank.
func (sh *rankShard) vertexFor(thread int32, node ir.NodeID) graph.VertexID {
	k := FlowKey{Rank: sh.rank, Thread: thread, Node: node}
	if v, ok := sh.flowIdx[k]; ok {
		return v
	}
	id := addFlowVertex(sh.g, &sh.nodeOf, sh.run.Program, k)
	sh.flowIdx[k] = id
	sh.inStream = append(sh.inStream, false)
	return id
}

// addFlowVertex adds the flow vertex of k to g, appending its IR node to
// *nodeOf: a vertex of the program's node k.Node, or a compute vertex
// named after an ID the program lacks, tagged with k's rank and thread.
func addFlowVertex(g *graph.Graph, nodeOf *[]ir.NodeID, prog *ir.Program, k FlowKey) graph.VertexID {
	var id graph.VertexID
	if n := prog.Node(k.Node); n != nil {
		id = addIRVertexTo(g, n)
		*nodeOf = append(*nodeOf, nodeInfo(n).ID())
	} else {
		id = g.AddVertex(fmt.Sprintf("node%d", k.Node), VertexCompute)
		*nodeOf = append(*nodeOf, k.Node)
	}
	v := g.Vertex(id)
	v.SetMetric(MetricRank, float64(k.Rank))
	v.SetMetric(MetricThread, float64(k.Thread))
	return id
}

// build walks the rank's event stream in order, extending the rank-level
// flow and any thread flows, and wiring fork/join edges around parallel
// regions.
func (sh *rankShard) build(evs []trace.Event) {
	for i := range evs {
		e := &evs[i]
		v := sh.vertexFor(e.Thread, e.Node)
		accumulate(sh.g, v, e)

		// A flow is the sequence of DISTINCT vertices in first-visit order
		// (the paper's pre-order traversal): repeated visits from loop
		// iterations aggregate into the existing vertex and add no edge, so
		// flows stay acyclic.
		if !sh.inStream[v] {
			if last, seen := sh.lastInFlow[e.Thread]; seen && last != v {
				ensureEdge(sh.g, sh.edgeIdx, last, v, EdgeIntraProc)
			}
			sh.streams[e.Thread] = append(sh.streams[e.Thread], v)
			sh.inStream[v] = true
		}
		sh.lastInFlow[e.Thread] = v

		if e.Thread >= 0 {
			// First event of a thread flow hangs off nothing yet; the
			// region event (emitted after its thread events) forks to it.
			continue
		}
		// A rank-level event: if this is a region, fork to the thread flows
		// recorded since the previous rank-level event; any pending thread
		// tails join here first.
		for _, tail := range sh.pendingJoins {
			ensureEdge(sh.g, sh.edgeIdx, tail, v, EdgeInterThread)
		}
		sh.pendingJoins = sh.pendingJoins[:0]
		if e.Kind == trace.KindRegion {
			sh.forkJoinRegion(v, i, evs)
		}
	}
}

// forkJoinRegion adds fork edges from the region vertex to the first vertex
// of each thread flow whose events lie inside the region span, and queues
// their last vertices for joining to the next rank-level vertex.
func (sh *rankShard) forkJoinRegion(regionV graph.VertexID, regionIdx int, evs []trace.Event) {
	region := &evs[regionIdx]
	firstOf := map[int32]graph.VertexID{}
	lastOf := map[int32]graph.VertexID{}
	for i := regionIdx - 1; i >= 0; i-- {
		e := &evs[i]
		if e.Thread < 0 {
			break // previous rank-level event: past the region's thread block
		}
		if e.Start < region.Start-1e-9 {
			break
		}
		v := sh.flowIdx[FlowKey{Rank: sh.rank, Thread: e.Thread, Node: e.Node}]
		firstOf[e.Thread] = v // iterating backwards: last assignment wins = first event
		if _, ok := lastOf[e.Thread]; !ok {
			lastOf[e.Thread] = v
		}
	}
	threads := make([]int32, 0, len(firstOf))
	for t := range firstOf {
		threads = append(threads, t)
	}
	slices.Sort(threads)
	for _, t := range threads {
		ensureEdge(sh.g, sh.edgeIdx, regionV, firstOf[t], EdgeInterThread)
		sh.pendingJoins = append(sh.pendingJoins, lastOf[t])
	}
}

// ensureEdge adds an edge src -> dst with the label to g unless idx holds
// one, and bumps its count metric. Dedup is by index lookup, not an
// out-list scan.
func ensureEdge(g *graph.Graph, idx map[edgeKey]graph.EdgeID, src, dst graph.VertexID, label int) graph.EdgeID {
	k := edgeKey{src, dst, label}
	if eid, ok := idx[k]; ok {
		e := g.Edge(eid)
		e.SetMetric(MetricCount, e.Metric(MetricCount)+1)
		return eid
	}
	eid := g.AddEdge(src, dst, label)
	g.Edge(eid).SetMetric(MetricCount, 1)
	idx[k] = eid
	return eid
}

// accumulate folds an event's measurements into its flow vertex.
func accumulate(g *graph.Graph, v graph.VertexID, e *trace.Event) {
	vert := g.Vertex(v)
	vert.AddMetric(MetricTime, e.Dur())
	vert.AddMetric(MetricExclTime, e.Dur())
	vert.AddMetric(MetricCount, 1)
	if e.Wait > 0 {
		vert.AddMetric(MetricWait, e.Wait)
	}
	if e.Bytes > 0 {
		vert.AddMetric(MetricBytes, e.Bytes)
	}
}

// mergedBuilder runs the cross-rank construction phases on the merged
// graph: sync edges (messages, rendezvous, collectives, locks) and the
// synthetic resource vertices for lock contention.
type mergedBuilder struct {
	p       *PAG
	run     *trace.Run
	shards  []*rankShard
	offs    []graph.VertexID           // per rank: its shard's first merged vertex
	extra   map[FlowKey]graph.VertexID // flow vertices created after the merge
	streams map[flowID][]graph.VertexID
	edgeIdx map[edgeKey]graph.EdgeID
}

// vertexFor returns (creating if needed) the merged-graph flow vertex for
// (rank, thread, node), found through its rank's shard index plus the
// shard's offset. Sync records can reference flows with no recorded
// events; their vertices appear here, after all rank shards.
func (b *mergedBuilder) vertexFor(rank, thread int32, node ir.NodeID) graph.VertexID {
	k := FlowKey{Rank: rank, Thread: thread, Node: node}
	if rank >= 0 && int(rank) < len(b.shards) {
		if v, ok := b.shards[rank].flowIdx[k]; ok {
			return b.offs[rank] + v
		}
	}
	if v, ok := b.extra[k]; ok {
		return v
	}
	id := addFlowVertex(b.p.G, &b.p.nodeOf, b.run.Program, k)
	b.extra[k] = id
	return id
}

// addSyncEdges materializes the recorded cross-flow dependences as
// inter-process (messages, rendezvous, collectives) and inter-thread (lock)
// edges, aggregating repeats and accumulating wait/bytes.
func (b *mergedBuilder) addSyncEdges() {
	for i := range b.run.Syncs {
		se := &b.run.Syncs[i]
		src := b.vertexFor(se.SrcRank, se.SrcThread, se.SrcNode)
		dst := b.vertexFor(se.DstRank, se.DstThread, se.DstNode)
		label := EdgeInterProcess
		if se.Kind == trace.SyncLock {
			label = EdgeInterThread
		}
		eid := ensureEdge(b.p.G, b.edgeIdx, src, dst, label)
		e := b.p.G.Edge(eid)
		e.SetMetric(MetricWait, e.Metric(MetricWait)+se.Wait)
		if se.Bytes > 0 {
			e.SetMetric(MetricBytes, e.Metric(MetricBytes)+se.Bytes)
		}
		if se.Lock != "" {
			e.SetAttr(AttrLock, se.Lock)
		}
	}
}

// addResourceVertices creates one synthetic resource vertex per contended
// (rank, lock) pair and wires the contention shape the detection pattern
// searches for: every contending flow vertex points at the resource, and
// the resource points at the continuation of every delayed flow.
func (b *mergedBuilder) addResourceVertices() {
	type resKey struct {
		rank int32
		lock string
	}
	contributors := map[resKey]map[graph.VertexID]bool{}
	waiters := map[resKey]map[graph.VertexID]float64{}
	for i := range b.run.Syncs {
		se := &b.run.Syncs[i]
		if se.Kind != trace.SyncLock {
			continue
		}
		k := resKey{rank: se.SrcRank, lock: se.Lock}
		if contributors[k] == nil {
			contributors[k] = map[graph.VertexID]bool{}
			waiters[k] = map[graph.VertexID]float64{}
		}
		src := b.vertexFor(se.SrcRank, se.SrcThread, se.SrcNode)
		dst := b.vertexFor(se.DstRank, se.DstThread, se.DstNode)
		contributors[k][src] = true
		contributors[k][dst] = true
		waiters[k][dst] += se.Wait
	}
	keys := make([]resKey, 0, len(contributors))
	for k := range contributors {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].lock < keys[j].lock
	})
	for _, k := range keys {
		rid := b.p.G.AddVertex(k.lock, VertexResource)
		rv := b.p.G.Vertex(rid)
		rv.SetAttr(AttrLock, k.lock)
		rv.SetMetric(MetricRank, float64(k.rank))
		rv.SetMetric(MetricThread, -1)
		b.p.nodeOf = append(b.p.nodeOf, ir.NoNode)

		for _, c := range sortedKeys(contributors[k]) {
			ensureEdge(b.p.G, b.edgeIdx, c, rid, EdgeInterThread)
		}
		for _, w := range sortedKeys(waiters[k]) {
			next := b.continuation(w)
			if next == graph.NoVertex {
				next = w
			}
			if next != rid {
				eid := ensureEdge(b.p.G, b.edgeIdx, rid, next, EdgeInterThread)
				e := b.p.G.Edge(eid)
				e.SetMetric(MetricWait, e.Metric(MetricWait)+waiters[k][w])
			}
			rv.AddMetric(MetricWait, waiters[k][w])
		}
	}
}

// continuation returns the vertex following v in its flow stream. For a
// thread-flow tail it follows the join edge to the rank-level vertex after
// the parallel region; NoVertex if v is the very end of its flow.
func (b *mergedBuilder) continuation(v graph.VertexID) graph.VertexID {
	vert := b.p.G.Vertex(v)
	fid := flowID{rank: int32(vert.Metric(MetricRank)), thread: int32(vert.Metric(MetricThread))}
	stream := b.streams[fid]
	for i, s := range stream {
		if s == v {
			if i+1 < len(stream) {
				return stream[i+1]
			}
			break
		}
	}
	// Flow tail: the join edge added when the next rank-level event appeared
	// points at the continuation.
	for _, eid := range b.p.G.OutEdges(v) {
		e := b.p.G.Edge(eid)
		if e.Label == EdgeInterThread && int32(b.p.G.Vertex(e.Dst).Metric(MetricThread)) == -1 {
			return e.Dst
		}
	}
	return graph.NoVertex
}

// sortedKeys returns the vertices of m in ascending order.
func sortedKeys[V any](m map[graph.VertexID]V) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// ContentionPattern returns the candidate subgraph of Listing 6 in the
// paper: two contributors feeding a resource vertex that delays two
// continuations — the shape searched by the contention-detection pass.
func ContentionPattern() *graph.Graph {
	q := graph.New(5, 4)
	q.AddVertex("A", graph.WildcardLabel)
	q.AddVertex("B", graph.WildcardLabel)
	q.AddVertex("C", VertexResource)
	q.AddVertex("D", graph.WildcardLabel)
	q.AddVertex("E", graph.WildcardLabel)
	q.AddEdge(0, 2, EdgeInterThread)
	q.AddEdge(1, 2, EdgeInterThread)
	q.AddEdge(2, 3, EdgeInterThread)
	q.AddEdge(2, 4, EdgeInterThread)
	return q
}
