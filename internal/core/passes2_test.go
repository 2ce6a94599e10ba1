package core

import (
	"strings"
	"testing"

	"perflow/internal/collector"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

func TestCommunityGroupsHotModule(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	all := AllVertices(res.TopDown)
	groups := Community(all)
	if len(groups) < 2 {
		t.Fatalf("groups = %d, want several", len(groups))
	}
	// Ordered by time, and the hottest group contains the stencil kernel.
	for i := 1; i < len(groups); i++ {
		if groups[i].Time > groups[i-1].Time {
			t.Error("groups not sorted by time")
		}
	}
	// Every set member got a community attribute.
	for i := 0; i < all.Len(); i++ {
		if all.Vertex(i).Attr(AttrCommunity) == "" {
			t.Fatalf("vertex %s missing community", all.Vertex(i).Name)
		}
	}
}

func TestWaitStatesClassification(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	comm := AllVertices(res.TopDown).FilterName("MPI_*")
	classified := WaitStates(comm)
	if classified.Len() == 0 {
		t.Fatal("no waiting communication found")
	}
	// The allreduce behind the imbalance must be wait-at-collective; the
	// waitall must be late-sender.
	seen := map[string]string{}
	for i := 0; i < comm.Len(); i++ {
		v := comm.Vertex(i)
		seen[v.Name] = v.Attr(AttrWaitState)
	}
	if seen["MPI_Allreduce"] != "wait-at-collective" {
		t.Errorf("allreduce class = %q", seen["MPI_Allreduce"])
	}
	if seen["MPI_Waitall"] != "late-sender" {
		t.Errorf("waitall class = %q", seen["MPI_Waitall"])
	}
	// Sorted by wait.
	for i := 1; i < classified.Len(); i++ {
		if classified.Vertex(i).Metric(pag.MetricWait) > classified.Vertex(i-1).Metric(pag.MetricWait) {
			t.Error("not sorted by wait")
		}
	}
}

func TestScalingCurveClassifies(t *testing.T) {
	p := workloads.ZeusMP(false)
	var points []ScalingPoint
	for _, ranks := range []int{4, 16, 64} {
		res, err := collector.Collect(p, collector.Options{Ranks: ranks, SkipParallelView: true})
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, ScalingPoint{Ranks: ranks, Set: AllVertices(res.TopDown)})
	}
	growing, err := ScalingCurve(points)
	if err != nil {
		t.Fatal(err)
	}
	if growing.Len() == 0 {
		t.Fatal("no growing vertices found")
	}
	names := strings.Join(growing.Names(), ",")
	if !strings.Contains(names, "MPI_") {
		t.Errorf("growing set misses communication: %v", growing.Names())
	}
	// The strongly-scaling sweep must be classified as scaling, not growing.
	last := points[len(points)-1].Set
	for i := 0; i < last.Len(); i++ {
		v := last.Vertex(i)
		if v.Name == "sweep" && v.Attr(AttrScaling) == string(ScalingGrowing) {
			t.Error("perfectly scaling compute classified as growing")
		}
	}
	// Error cases.
	if _, err := ScalingCurve(points[:1]); err == nil {
		t.Error("single point should error")
	}
}

func TestScalingCurvePassWiring(t *testing.T) {
	p := workloads.NPB("ep")
	var sets []*Set
	g := NewPerFlowGraph()
	var srcs []*PNode
	for _, ranks := range []int{2, 8} {
		res, err := collector.Collect(p, collector.Options{Ranks: ranks, SkipParallelView: true})
		if err != nil {
			t.Fatal(err)
		}
		s := AllVertices(res.TopDown)
		sets = append(sets, s)
		srcs = append(srcs, g.AddSource("run", s))
	}
	sc := g.AddPass(ScalingCurvePass())
	for i, src := range srcs {
		g.Connect(src, 0, sc, i)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if sc.Output() == nil {
		t.Fatal("no output")
	}
	_ = sets
}

func TestTopProcesses(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	// Top-down view: use per-rank vectors.
	rows := TopProcesses(AllVertices(res.TopDown), pag.MetricTime, 2)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Rank != 0 {
		t.Errorf("hottest rank = %d, want 0 (the planted 8x overload)", rows[0].Rank)
	}
	// Parallel view: use rank metrics directly.
	prows := TopProcesses(AllVertices(res.Parallel), pag.MetricTime, 1)
	if len(prows) != 1 || prows[0].Rank != 0 {
		t.Errorf("parallel top rank = %+v", prows)
	}
}
