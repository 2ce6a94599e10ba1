package core

import (
	"bytes"
	"strings"
	"testing"

	"perflow/internal/collector"
	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/pag"
)

// analysisProgram builds an MPI program with a planted imbalance feeding a
// waitall and an allreduce — the propagation chain the passes must find.
func analysisProgram(t testing.TB) *ir.Program {
	p, err := ir.NewBuilder("analysis").
		Func("main", "main.c", 1, func(b *ir.Body) {
			l := b.Loop("steps", 3, ir.Const(5), func(lb *ir.Body) {
				lb.Call("stencil", 4)
				lb.Allreduce(5, ir.Const(8))
			})
			l.CommPerIter = true
		}).
		Func("stencil", "stencil.c", 10, func(b *ir.Body) {
			b.Compute("halo_pack", 11, ir.Expr{Base: 20, Factor: map[int]float64{0: 8}})
			b.Isend(12, ir.Peer{Kind: ir.PeerRight}, ir.Const(2048), 1, "s")
			b.Irecv(13, ir.Peer{Kind: ir.PeerLeft}, ir.Const(2048), 1, "r")
			b.Compute("interior", 14, ir.Const(30))
			b.Waitall(15)
		}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func collect(t testing.TB, p *ir.Program, ranks int) *collector.Result {
	res, err := collector.Collect(p, collector.Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHotspotFindsImbalancedLoop(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	hs := Hotspot(AllVertices(res.TopDown), pag.MetricExclTime, 3)
	if hs.Len() != 3 {
		t.Fatalf("hotspots = %d", hs.Len())
	}
	// The allreduce absorbs the imbalance as wait time (the secondary bug),
	// and the overloaded halo_pack is the underlying load — both must rank
	// among the top hotspots.
	names := strings.Join(hs.Names(), ",")
	if !strings.Contains(names, "halo_pack") || !strings.Contains(names, "MPI_Allreduce") {
		t.Errorf("hotspots = %v, want halo_pack and MPI_Allreduce present", hs.Names())
	}
}

func TestImbalanceDetectsPlantedSkew(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	imb := Imbalance(AllVertices(res.TopDown), pag.MetricTime, 1.5)
	found := false
	for _, n := range imb.Names() {
		if n == "halo_pack" {
			found = true
		}
	}
	if !found {
		t.Errorf("imbalance analysis missed halo_pack: %v", imb.Names())
	}
	// The balanced interior compute must not appear.
	for _, n := range imb.Names() {
		if n == "interior" {
			t.Errorf("balanced vertex reported imbalanced")
		}
	}
	// Ratio metric is set and > 1.
	if imb.Len() > 0 && imb.Vertex(0).Metric(MetricImbalance) <= 1 {
		t.Errorf("imbalance metric = %v", imb.Vertex(0).Metric(MetricImbalance))
	}
}

func TestDifferentialScalingLoss(t *testing.T) {
	p := ir.NewBuilder("scale").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("scales", 2, ir.Expr{Base: 1000, Scaling: ir.ScaleInvP})
			b.Compute("fixed_cost", 3, ir.Const(50))
			b.Allreduce(4, ir.Const(8))
		}).MustBuild()
	small := collect(t, p, 2)
	large := collect(t, p, 8)
	diff := Differential(AllVertices(small.TopDown), AllVertices(large.TopDown), pag.MetricTime, true)
	// Per-vertex relative change: "scales" shrinks per rank but the summed
	// metric stays flat; "fixed_cost" quadruples (4x ranks at constant
	// cost); the allreduce grows superlinearly. Hotspot on scaleloss should
	// rank allreduce/fixed_cost above scales.
	top := Hotspot(diff, MetricScaleLoss, 2)
	for _, n := range top.Names() {
		if n == "scales" {
			t.Errorf("perfectly scaling vertex ranked as scaling loss: %v", top.Names())
		}
	}
	names := strings.Join(top.Names(), ",")
	if !strings.Contains(names, "MPI_Allreduce") && !strings.Contains(names, "fixed_cost") {
		t.Errorf("scaling-loss top = %v", top.Names())
	}
}

func TestBreakdownClassifies(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	comm := AllVertices(res.TopDown).FilterName("MPI_*")
	bd := Breakdown(comm)
	foundWaitDominated := false
	for i := 0; i < bd.Len(); i++ {
		v := bd.Vertex(i)
		if v.Attr("breakdown") == "" {
			t.Errorf("vertex %s missing breakdown attr", v.Name)
		}
		if v.Name == "MPI_Waitall" && v.Attr("breakdown") == "preceding-imbalance" {
			foundWaitDominated = true
		}
	}
	if !foundWaitDominated {
		t.Error("waitall delayed by imbalance not classified as preceding-imbalance")
	}
}

func TestCausalOnParallelView(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	pv := res.Parallel
	// Feed the waitall flow vertices with the largest wait to causal
	// analysis; the LCA should lie on the propagation paths.
	victims := AllVertices(pv).FilterName("MPI_Waitall").SortBy(pag.MetricWait).Top(3)
	if victims.Len() < 2 {
		t.Fatalf("not enough waitall flow vertices: %d", victims.Len())
	}
	causes := Causal(victims)
	if causes.Len() == 0 {
		t.Fatal("causal analysis found no common ancestors")
	}
	if len(causes.E) == 0 {
		t.Error("causal analysis returned no path edges")
	}
}

func TestContentionFindsAllocPattern(t *testing.T) {
	p := ir.NewBuilder("cont").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Parallel("louvain", 2, 4, false, ir.ModelOpenMP, func(pb *ir.Body) {
				pb.Compute("phase", 3, ir.Const(5))
				pb.Alloc(ir.AllocRealloc, 4, ir.Const(30), ir.Const(1))
				pb.Compute("insert", 5, ir.Const(2))
			})
		}).MustBuild()
	res := collect(t, p, 2)
	found := Contention(NewSet(res.Parallel)) // global search
	if found.Len() == 0 {
		t.Fatal("global contention search found nothing")
	}
	hasResource := false
	for i := 0; i < found.Len(); i++ {
		if found.Vertex(i).Label == pag.VertexResource {
			hasResource = true
		}
	}
	if !hasResource {
		t.Error("contention embedding lacks the resource vertex")
	}

	// Anchored search around the realloc flow vertices.
	allocs := AllVertices(res.Parallel).FilterLabel(pag.VertexAlloc)
	anchored := Contention(allocs)
	if anchored.Len() == 0 {
		t.Error("anchored contention search found nothing")
	}
}

func TestCriticalPathPass(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	cp := CriticalPath(AllVertices(res.Parallel))
	if cp.Len() == 0 {
		t.Fatal("empty critical path")
	}
	if len(cp.E) != cp.Len()-1 {
		t.Errorf("path shape wrong: %d vertices, %d edges", cp.Len(), len(cp.E))
	}
	// The path should pass through the slow rank's work.
	onSlowRank := false
	for i := 0; i < cp.Len(); i++ {
		if int(cp.Vertex(i).Metric(pag.MetricRank)) == 0 {
			onSlowRank = true
		}
	}
	if !onSlowRank {
		t.Error("critical path avoids the overloaded rank 0")
	}
}

func TestBacktrackReachesRootCause(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	pv := res.Parallel
	// Start from the allreduce with the largest wait (the secondary bug).
	victims := AllVertices(pv).FilterName("MPI_Allreduce").SortBy(pag.MetricWait).Top(1)
	bt := Backtrack(victims, 0)
	if bt.Len() < 2 {
		t.Fatalf("backtracking found too little: %v", bt.Names())
	}
	reachedCompute := false
	for _, n := range bt.Names() {
		if n == "halo_pack" {
			reachedCompute = true
		}
	}
	if !reachedCompute {
		t.Errorf("backtracking did not reach the imbalanced compute: %v", bt.Names())
	}
}

func TestProjectTopDownToParallel(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	td := AllVertices(res.TopDown).FilterName("MPI_Waitall")
	proj := Project(td, res.Parallel)
	if proj.Len() != 4 {
		t.Errorf("projected waitall onto %d flow vertices, want 4 (one per rank)", proj.Len())
	}
	back := Project(proj, res.TopDown)
	if back.Len() != 1 {
		t.Errorf("round-trip projection = %d, want 1", back.Len())
	}
}

func TestPassArityEnforced(t *testing.T) {
	env := fakeEnv("a")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	diff := g.AddPass(DifferentialPass(pag.MetricTime, false))
	g.Connect(src, 0, diff, 0) // only one of two inputs
	if _, err := g.Run(); err == nil {
		t.Error("expected arity error")
	}
}

func TestFlowGraphUnconnectedInput(t *testing.T) {
	g := NewPerFlowGraph()
	g.AddPass(HotspotPass(pag.MetricTime, 5))
	if _, err := g.Run(); err == nil || !strings.Contains(err.Error(), "input") {
		t.Errorf("expected unbound-input error, got %v", err)
	}
}

func TestFlowGraphRunsInDependencyOrder(t *testing.T) {
	env := fakeEnv("MPI_Send", "compute")
	env.G.Vertex(0).SetMetric(pag.MetricExclTime, 10)
	env.G.Vertex(1).SetMetric(pag.MetricExclTime, 99)
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	filter := g.AddPass(FilterPass("MPI_*"))
	hot := g.AddPass(HotspotPass(pag.MetricExclTime, 1))
	g.Pipe(src, filter)
	g.Pipe(filter, hot)
	out, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := hot.Output().Names(); len(got) != 1 || got[0] != "MPI_Send" {
		t.Errorf("pipeline output = %v", got)
	}
	if len(out.Nodes()) != 3 {
		t.Errorf("results node count = %d", len(out.Nodes()))
	}
	if s := out.Output(hot); s == nil || s.Len() != 1 {
		t.Errorf("Results.Output(hot) = %v", s)
	}
	if byName := out.ByName("hotspot_detection"); len(byName) != 1 {
		t.Errorf("ByName groups = %d, want 1", len(byName))
	}
}

func TestUnionIntersectPasses(t *testing.T) {
	env := fakeEnv("a", "b", "c")
	s1 := NewSet(env)
	s1.V = []graph.VertexID{0, 1}
	s2 := NewSet(env)
	s2.V = []graph.VertexID{1, 2}
	g := NewPerFlowGraph()
	n1 := g.AddSource("s1", s1)
	n2 := g.AddSource("s2", s2)
	u := g.AddPass(UnionPass())
	i := g.AddPass(IntersectPass())
	g.Connect(n1, 0, u, 0)
	g.Connect(n2, 0, u, 1)
	g.Connect(n1, 0, i, 0)
	g.Connect(n2, 0, i, 1)
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if u.Output().Len() != 3 || i.Output().Len() != 1 {
		t.Errorf("union = %d, intersect = %d", u.Output().Len(), i.Output().Len())
	}
}

func TestReportPassRendersTable(t *testing.T) {
	res := collect(t, analysisProgram(t), 2)
	var buf bytes.Buffer
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(res.TopDown))
	hot := g.AddPass(HotspotPass(pag.MetricExclTime, 3))
	rep := g.AddPass(ReportPass(&buf, "hotspots", []string{"name", "etime", "debug"}, 10))
	g.Pipe(src, hot)
	g.Pipe(hot, rep)
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hotspots", "halo_pack", "stencil.c:11"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDOTHighlighting(t *testing.T) {
	res := collect(t, analysisProgram(t), 2)
	s := Hotspot(AllVertices(res.TopDown), pag.MetricExclTime, 1)
	dot := DOT(s, "hot")
	if !strings.Contains(dot, "shape=box") {
		t.Error("DOT lacks highlighted vertices")
	}
}
