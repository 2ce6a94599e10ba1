package pag

import (
	"testing"

	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/mpisim"
	"perflow/internal/trace"
	"perflow/internal/workloads"
)

// workloadsPaperExample builds the Listing 2 model (indirection keeps the
// import local to this test).
func workloadsPaperExample(t testing.TB) *ir.Program {
	t.Helper()
	return workloads.PaperExample()
}

// testProgram builds a small MPI+threads program exercising every vertex
// label: functions, loops, calls (direct/external/indirect), comm ops,
// branches, parallel regions with allocator traffic.
func testProgram(t testing.TB) *ir.Program {
	p, err := ir.NewBuilder("pagtest").
		Meta(1.0, 50_000).
		Func("main", "main.c", 1, func(b *ir.Body) {
			b.Compute("init", 2, ir.Const(10))
			b.Loop("loop_1", 4, ir.Const(5), func(l *ir.Body) {
				l.Call("foo", 5)
			})
			b.Branch("check", 8, ir.Const(1), func(br *ir.Body) {
				b.ExternalCall("memcpy", 9, ir.Const(1))
			})
			b.IndirectCall("fnptr", 11)
			b.Isend(12, ir.Peer{Kind: ir.PeerRight}, ir.Const(512), 1, "s")
			b.Irecv(13, ir.Peer{Kind: ir.PeerLeft}, ir.Const(512), 1, "r")
			b.Waitall(14)
			b.Parallel("omp_region", 16, 2, false, ir.ModelOpenMP, func(pb *ir.Body) {
				pb.Compute("tbody", 17, ir.Const(5))
				pb.Alloc(ir.AllocAlloc, 18, ir.Const(8), ir.Const(1))
				pb.Compute("tpost", 19, ir.Const(2))
			})
			b.Allreduce(20, ir.Const(8))
		}).
		Func("foo", "foo.c", 1, func(b *ir.Body) {
			b.Compute("kernel", 2, ir.Expr{Base: 20, Factor: map[int]float64{0: 3}})
		}).Build()
	if err != nil {
		t.Fatalf("testProgram: %v", err)
	}
	return p
}

func testRun(t testing.TB, p *ir.Program, ranks int) *trace.Run {
	run, err := mpisim.Run(p, mpisim.Config{NRanks: ranks, Threads: 2})
	if err != nil {
		t.Fatalf("mpisim.Run: %v", err)
	}
	return run
}

func TestBuildTopDownStructure(t *testing.T) {
	p := testProgram(t)
	pg := BuildTopDown(p)
	nv, ne := pg.Size()
	if nv != p.NumNodes() {
		t.Errorf("|V| = %d, want %d (one vertex per IR node)", nv, p.NumNodes())
	}
	if ne < nv-2 {
		t.Errorf("|E| = %d, suspiciously small for %d vertices", ne, nv)
	}
	// Every IR node resolves to a vertex and back.
	p.Walk(func(n, _ ir.Node) {
		id := ir.InfoOf(n).ID()
		v := pg.VertexOf(id)
		if v == graph.NoVertex {
			t.Fatalf("node %q has no vertex", ir.InfoOf(n).Name)
		}
		if pg.NodeOf(v) != id {
			t.Fatalf("NodeOf(VertexOf(%d)) = %d", id, pg.NodeOf(v))
		}
	})
	// Call foo has an inter-procedural edge to function foo.
	fooFn := pg.VertexOf(p.Function("foo").ID())
	callV := graph.NoVertex
	for i := 0; i < pg.G.NumVertices(); i++ {
		v := pg.G.Vertex(graph.VertexID(i))
		if v.Name == "foo" && v.Label == VertexCall {
			callV = graph.VertexID(i)
		}
	}
	if callV == graph.NoVertex {
		t.Fatal("no call vertex for foo")
	}
	found := false
	for _, eid := range pg.G.OutEdges(callV) {
		e := pg.G.Edge(eid)
		if e.Dst == fooFn && e.Label == EdgeInterProc {
			found = true
		}
	}
	if !found {
		t.Error("missing inter-procedural edge call->function")
	}
	// The top-down view must be acyclic (paper Fig 4 merges function DAGs).
	if !pg.G.Frozen().Acyclic() {
		t.Error("top-down view has a cycle")
	}
}

func TestTopDownLabels(t *testing.T) {
	p := testProgram(t)
	pg := BuildTopDown(p)
	counts := map[int]int{}
	for i := 0; i < pg.G.NumVertices(); i++ {
		counts[pg.G.Vertex(graph.VertexID(i)).Label]++
	}
	if counts[VertexFunc] != 2 {
		t.Errorf("function vertices = %d", counts[VertexFunc])
	}
	if counts[VertexLoop] != 1 || counts[VertexBranch] != 1 || counts[VertexParallel] != 1 {
		t.Errorf("structure labels wrong: %v", counts)
	}
	if counts[VertexCommCall] != 4 {
		t.Errorf("comm vertices = %d, want 4", counts[VertexCommCall])
	}
	if counts[VertexIndirectCall] != 1 || counts[VertexExternalCall] != 1 {
		t.Errorf("call subtype labels wrong: %v", counts)
	}
	if counts[VertexAlloc] != 1 {
		t.Errorf("alloc vertices = %d", counts[VertexAlloc])
	}
}

func TestIndirectCallMarkedUnresolved(t *testing.T) {
	p := testProgram(t)
	pg := BuildTopDown(p)
	var v *graph.Vertex
	for i := 0; i < pg.G.NumVertices(); i++ {
		if pg.G.Vertex(graph.VertexID(i)).Label == VertexIndirectCall {
			v = pg.G.Vertex(graph.VertexID(i))
		}
	}
	if v == nil || v.Attr(AttrUnresolved) != "true" {
		t.Errorf("indirect call not marked unresolved: %+v", v)
	}
	// Dynamic phase resolves it if events show it ran. Our indirect calls
	// have zero cost here, so they produce no events and stay unresolved —
	// assert the marker survives.
	run := testRun(t, p, 2)
	pg.MarkDynamicCallees(run)
	if v.Attr(AttrUnresolved) != "true" {
		t.Errorf("marker = %q", v.Attr(AttrUnresolved))
	}
}

func TestEmbedRunMetrics(t *testing.T) {
	p := testProgram(t)
	pg := BuildTopDown(p)
	run := testRun(t, p, 4)
	pg.EmbedRun(run, PMUModel{})

	kernel := pg.G.Vertex(pg.VertexOf(p.Function("foo").Body[0].(*ir.Compute).ID()))
	// 5 trips x 20µs base; rank 0 has 3x factor. Summed over 4 ranks:
	// 3*100 + 300 = 600.
	if got := kernel.Metric(MetricExclTime); got < 590 || got > 610 {
		t.Errorf("kernel etime = %v, want ~600", got)
	}
	vec := kernel.Vec(MetricTime + "_vec")
	if len(vec) != 4 {
		t.Fatalf("per-rank vec len = %d", len(vec))
	}
	if vec[0] <= vec[1]*2 {
		t.Errorf("rank 0 should dominate: %v", vec)
	}
	if kernel.Metric(MetricCycles) <= 0 || kernel.Metric(MetricInstrs) <= 0 || kernel.Metric(MetricCacheMiss) <= 0 {
		t.Errorf("PMU counters missing: cycles=%v instructions=%v cache_misses=%v",
			kernel.Metric(MetricCycles), kernel.Metric(MetricInstrs), kernel.Metric(MetricCacheMiss))
	}
	if kernel.Metric(MetricCount) != 4 {
		t.Errorf("count = %v, want 4 (one closed-form event per rank)", kernel.Metric(MetricCount))
	}

	// Inclusive time on main covers everything rank-level.
	mainV := pg.G.Vertex(pg.VertexOf(p.Function("main").ID()))
	if mainV.Metric(MetricTime) < kernel.Metric(MetricExclTime) {
		t.Errorf("main inclusive %v < kernel exclusive %v", mainV.Metric(MetricTime), kernel.Metric(MetricExclTime))
	}
	// Loop vertex has inclusive time but no exclusive time.
	loopV := pg.G.Vertex(pg.VertexOf(p.Function("main").Body[1].(*ir.Loop).ID()))
	if loopV.Metric(MetricTime) <= 0 {
		t.Errorf("loop inclusive time = %v", loopV.Metric(MetricTime))
	}
	if loopV.Metric(MetricExclTime) != 0 {
		t.Errorf("loop exclusive time = %v, want 0", loopV.Metric(MetricExclTime))
	}

	// Allreduce vertex carries wait on some rank.
	arV := graph.NoVertex
	for i := 0; i < pg.G.NumVertices(); i++ {
		if pg.G.Vertex(graph.VertexID(i)).Name == "MPI_Allreduce" {
			arV = graph.VertexID(i)
		}
	}
	if pg.G.Vertex(arV).Metric(MetricWait) <= 0 {
		t.Errorf("allreduce wait = %v", pg.G.Vertex(arV).Metric(MetricWait))
	}
	if pg.G.Vertex(arV).Metric(MetricBytes) <= 0 {
		t.Errorf("allreduce bytes missing")
	}
}

func TestSerializedSizePositive(t *testing.T) {
	p := testProgram(t)
	pg := BuildTopDown(p)
	run := testRun(t, p, 2)
	pg.EmbedRun(run, PMUModel{})
	if pg.SerializedSize() <= 0 {
		t.Error("serialized size should be positive")
	}
}

func TestBuildParallelFlows(t *testing.T) {
	p := testProgram(t)
	run := testRun(t, p, 4)
	pv := BuildParallel(run)

	if pv.View != Parallel {
		t.Error("view label wrong")
	}
	nv, ne := pv.Size()
	if nv == 0 || ne == 0 {
		t.Fatalf("parallel view empty: %d/%d", nv, ne)
	}
	// Each rank has its own flow vertex for the kernel compute.
	kernelID := p.Function("foo").Body[0].(*ir.Compute).ID()
	for r := int32(0); r < 4; r++ {
		v := pv.FlowVertex(r, -1, kernelID)
		if v == graph.NoVertex {
			t.Errorf("rank %d missing kernel flow vertex", r)
			continue
		}
		if got := int32(pv.G.Vertex(v).Metric(MetricRank)); got != r {
			t.Errorf("rank metric = %d, want %d", got, r)
		}
	}
	// Thread flow vertices exist for the region body.
	tbodyID := ir.InfoOf(findNode(p, "tbody")).ID()
	if pv.FlowVertex(0, 0, tbodyID) == graph.NoVertex || pv.FlowVertex(0, 1, tbodyID) == graph.NoVertex {
		t.Error("missing thread flow vertices")
	}
	// Parallel view is larger than top-down per-rank structure.
	td := BuildTopDown(p)
	tdv, _ := td.Size()
	if nv <= tdv {
		t.Errorf("parallel |V| = %d should exceed top-down |V| = %d", nv, tdv)
	}
}

func findNode(p *ir.Program, name string) ir.Node {
	var found ir.Node
	p.Walk(func(n, _ ir.Node) {
		if ir.InfoOf(n).Name == name {
			found = n
		}
	})
	return found
}

func TestParallelViewInterProcessEdges(t *testing.T) {
	p := testProgram(t)
	run := testRun(t, p, 4)
	pv := BuildParallel(run)
	ip := pv.G.EdgesWhere(func(e *graph.Edge) bool { return e.Label == EdgeInterProcess })
	if len(ip) == 0 {
		t.Fatal("no inter-process edges")
	}
	// Message edges land on the waitall vertices and cross ranks.
	crossRank := false
	for _, eid := range ip {
		e := pv.G.Edge(eid)
		src := pv.G.Vertex(e.Src)
		dst := pv.G.Vertex(e.Dst)
		if src.Metric(MetricRank) != dst.Metric(MetricRank) {
			crossRank = true
		}
	}
	if !crossRank {
		t.Error("inter-process edges never cross ranks")
	}
}

func TestParallelViewForkJoin(t *testing.T) {
	p := testProgram(t)
	run := testRun(t, p, 2)
	pv := BuildParallel(run)
	regionID := ir.InfoOf(findNode(p, "omp_region")).ID()
	regionV := pv.FlowVertex(0, -1, regionID)
	if regionV == graph.NoVertex {
		t.Fatal("region vertex missing")
	}
	forks := 0
	for _, eid := range pv.G.OutEdges(regionV) {
		if pv.G.Edge(eid).Label == EdgeInterThread {
			forks++
		}
	}
	if forks < 2 {
		t.Errorf("region fork edges = %d, want >= 2 (one per thread)", forks)
	}
	// The allreduce after the region receives join edges from thread tails.
	arID := ir.InfoOf(findNode(p, "MPI_Allreduce")).ID()
	arV := pv.FlowVertex(0, -1, arID)
	joins := 0
	for _, eid := range pv.G.InEdges(arV) {
		if pv.G.Edge(eid).Label == EdgeInterThread {
			joins++
		}
	}
	if joins < 2 {
		t.Errorf("join edges into post-region vertex = %d, want >= 2", joins)
	}
}

func TestParallelViewResourceVertices(t *testing.T) {
	p := testProgram(t)
	run := testRun(t, p, 2)
	pv := BuildParallel(run)
	resources := pv.G.VerticesWhere(func(v *graph.Vertex) bool { return v.Label == VertexResource })
	if len(resources) == 0 {
		t.Fatal("no resource vertices despite allocator contention")
	}
	r := resources[0]
	if pv.G.Vertex(r).Attr(AttrLock) == "" {
		t.Error("resource vertex missing lock attr")
	}
	if pv.G.InDegree(r) < 2 {
		t.Errorf("resource in-degree = %d, want >= 2 contributors", pv.G.InDegree(r))
	}
	if pv.G.OutDegree(r) < 1 {
		t.Errorf("resource out-degree = %d", pv.G.OutDegree(r))
	}
	if pv.NodeOf(r) != ir.NoNode {
		t.Error("synthetic resource vertex should map to NoNode")
	}
}

func TestContentionPatternMatchesParallelView(t *testing.T) {
	p := testProgram(t)
	run := testRun(t, p, 2)
	pv := BuildParallel(run)
	embs := graph.MatchSubgraph(pv.G, ContentionPattern(), graph.MatchOptions{MaxEmbeddings: 10})
	if len(embs) == 0 {
		t.Fatal("contention pattern not found in parallel view")
	}
	// Center of the pattern (query vertex 2) must be a resource vertex.
	for _, e := range embs {
		c := pv.G.Vertex(e.VertexMap[2])
		if c.Label != VertexResource {
			t.Errorf("pattern center label = %s", VertexLabelName(c.Label))
		}
	}
}

func TestViewAndLabelNames(t *testing.T) {
	if TopDown.String() != "top-down" || Parallel.String() != "parallel" {
		t.Error("view names wrong")
	}
	if VertexLabelName(VertexResource) != "resource" || VertexLabelName(999) == "" {
		t.Error("vertex label names wrong")
	}
	if EdgeLabelName(EdgeInterProcess) != "inter-process" || EdgeLabelName(42) == "" {
		t.Error("edge label names wrong")
	}
}

func TestFlowVertexMissingLookups(t *testing.T) {
	p := testProgram(t)
	pg := BuildTopDown(p)
	if pg.FlowVertex(0, -1, 0) != graph.NoVertex {
		t.Error("top-down view should have no flow vertices")
	}
	if pg.VertexOf(ir.NoNode) != graph.NoVertex {
		t.Error("VertexOf(NoNode) should be NoVertex")
	}
	if pg.NodeOf(graph.VertexID(99999)) != ir.NoNode {
		t.Error("NodeOf out of range should be NoNode")
	}
}

// TestPaperListing2Views reproduces §3.4's worked example: the top-down
// view of Listing 2 (Figure 4) merges main/foo/add through call edges, and
// the parallel view (Figure 5) spawns per-thread flows off pthread_create.
func TestPaperListing2Views(t *testing.T) {
	p := workloadsPaperExample(t)
	td := BuildTopDown(p)

	// Figure 4(b): main's Loop_1 call to foo has an inter-procedural edge
	// to function foo; foo's pthread_create region contains the call to add.
	fooV := td.VertexOf(p.Function("foo").ID())
	callFoo := graph.NoVertex
	for i := 0; i < td.G.NumVertices(); i++ {
		v := td.G.Vertex(graph.VertexID(i))
		if v.Name == "foo" && v.Label == VertexCall {
			callFoo = graph.VertexID(i)
		}
	}
	if callFoo == graph.NoVertex || td.G.FindEdge(callFoo, fooV) == graph.NoEdge {
		t.Fatal("Figure 4(b) merge edge (call foo -> function foo) missing")
	}
	pthreadV := graph.NoVertex
	for i := 0; i < td.G.NumVertices(); i++ {
		v := td.G.Vertex(graph.VertexID(i))
		if v.Name == "pthread_create" {
			pthreadV = graph.VertexID(i)
		}
	}
	if pthreadV == graph.NoVertex {
		t.Fatal("pthread_create vertex missing")
	}

	// Figure 3: the calling context main > Loop_1 > foo > pthread_create
	// resolves to the pthread_create vertex via embedding.
	run := testRun(t, p, 2)
	td.EmbedRun(run, PMUModel{})
	if td.G.Vertex(pthreadV).Metric(MetricTime) <= 0 {
		t.Error("no data embedded into pthread_create (Figure 3's walk)")
	}

	// Figure 5: the parallel view has thread flows under pthread_create
	// for every process.
	pv := BuildParallel(run)
	addSum := findNode(p, "sum")
	for r := int32(0); r < 2; r++ {
		for th := int32(0); th < 2; th++ {
			if pv.FlowVertex(r, th, ir.InfoOf(addSum).ID()) == graph.NoVertex {
				t.Errorf("rank %d thread %d flow missing the add work", r, th)
			}
		}
		regionV := pv.FlowVertex(r, -1, ir.InfoOf(findNode(p, "pthread_create")).ID())
		if regionV == graph.NoVertex {
			t.Errorf("rank %d missing pthread_create flow vertex", r)
			continue
		}
		forks := 0
		for _, eid := range pv.G.OutEdges(regionV) {
			if pv.G.Edge(eid).Label == EdgeInterThread {
				forks++
			}
		}
		if forks < 2 {
			t.Errorf("rank %d pthread_create forks %d thread flows, want 2", r, forks)
		}
	}
}
