package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// planOf compiles the plan RunCtx would use with the given options.
func planOf(g *PerFlowGraph, opts ...RunOption) *execPlan {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	d, err := g.validate()
	if err != nil {
		return nil
	}
	return g.buildPlan(cfg, d)
}

func stageKinds(p *execPlan) []string {
	kinds := make([]string, len(p.stages))
	for i, st := range p.stages {
		kinds[i] = st.kind
	}
	return kinds
}

func TestPlanFusesCommPipelineIntoChain(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv", "compute")
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(env))
	g.Chain(src,
		FilterPass("MPI_*"),
		HotspotPass(pag.MetricExclTime, 5),
		ImbalancePass(pag.MetricTime, 1.2),
		BreakdownPass())

	p := planOf(g)
	if p == nil {
		t.Fatal("buildPlan returned nil for an acyclic graph")
	}
	// The whole single-consumer pipeline collapses into one chain stage
	// behind the source.
	if len(p.stages) != 1 || p.stages[0].kind != "chain" {
		t.Fatalf("stages = %v, want one chain", stageKinds(p))
	}
	if p.trace.FusedPasses != 5 {
		t.Errorf("FusedPasses = %d, want 5", p.trace.FusedPasses)
	}
}

func TestPlanFusesSiblingScansIntoOneSweep(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv", "compute", "MPI_Allreduce")
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(env))
	f1 := g.AddPass(FilterPass("MPI_*"))
	f2 := g.AddPass(FilterPass("compute*"))
	h := g.AddPass(HotspotPass(pag.MetricExclTime, 2))
	for _, n := range []*PNode{f1, f2, h} {
		if err := g.Connect(src, 0, n, 0); err != nil {
			t.Fatal(err)
		}
	}

	p := planOf(g)
	var scan *planStage
	for _, st := range p.stages {
		if st.kind == "scan" {
			scan = st
		}
	}
	if scan == nil || len(scan.nodes) != 3 {
		t.Fatalf("stages = %v, want a 3-member scan group", stageKinds(p))
	}
	if p.trace.ScansFused != 2 {
		t.Errorf("ScansFused = %d, want 2", p.trace.ScansFused)
	}
	// Fan-out clones for the three pure siblings are all elided.
	if p.trace.ClonesElided != 3 {
		t.Errorf("ClonesElided = %d, want 3", p.trace.ClonesElided)
	}

	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Output(f1).Names(); len(got) != 3 {
		t.Errorf("fused filter kept %v, want the 3 MPI vertices", got)
	}
	if res.Trace().Plan == nil {
		t.Error("planned run left Trace().Plan nil")
	}
}

func TestPlanConflictingWritersNotScanFused(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv")
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(env))
	i1 := g.AddPass(ImbalancePass(pag.MetricTime, 1.2))
	i2 := g.AddPass(ImbalancePass(pag.MetricTime, 1.5))
	g.Connect(src, 0, i1, 0)
	g.Connect(src, 0, i2, 0)
	g.After(i2, i1) // serialized writers, as the engine's contract demands

	p := planOf(g)
	for _, st := range p.stages {
		if st.kind == "scan" {
			t.Fatalf("conflicting MetricImbalance writers were scan-fused: %v", stageKinds(p))
		}
	}
}

func TestPlanDisabledUnderPassTimeoutAndNoPlan(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv")
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(env))
	f1 := g.AddPass(FilterPass("MPI_*"))
	f2 := g.AddPass(FilterPass("*Send"))
	g.Connect(src, 0, f1, 0)
	g.Connect(src, 0, f2, 0)

	p := planOf(g, WithPassTimeout(1e9))
	for _, st := range p.stages {
		if st.kind == "scan" {
			t.Error("scan fusion must be disabled under WithPassTimeout")
		}
	}

	if _, err := g.Run(WithPlanning(false)); err != nil {
		t.Fatal(err)
	}
	if g.Trace().Plan != nil {
		t.Error("WithPlanning(false) still attached a plan trace")
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Trace().Plan == nil {
		t.Error("default run has no plan trace")
	}
}

func TestFusedScanPanicIsolatesCorrectPass(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv", "compute", "MPI_Allreduce")
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(env))
	f := g.AddPass(FilterPass("MPI_*"))
	bad := g.AddPass(badScanPass("exploding", 2))
	h := g.AddPass(HotspotPass(pag.MetricExclTime, 2))
	for _, n := range []*PNode{f, bad, h} {
		if err := g.Connect(src, 0, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	pre := planOf(g)
	fused := false
	for _, st := range pre.stages {
		if st.kind == "scan" && len(st.nodes) == 3 {
			fused = true
		}
	}
	if !fused {
		t.Fatalf("precondition: want a 3-member fused scan stage, got %v", stageKinds(pre))
	}

	res, err := g.Run(WithContinueOnFailure())
	if err != nil {
		t.Fatalf("degraded run must not fail: %v", err)
	}
	tr := g.Trace()
	if len(tr.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly the panicking member", tr.Failures)
	}
	if fl := tr.Failures[0]; fl.Pass != "exploding" || fl.Reason != FailurePanic {
		t.Fatalf("failure attributed to %q (%s), want exploding/panic", fl.Pass, fl.Reason)
	}
	// Survivors restarted and produced full results.
	if got := res.Output(f).Names(); len(got) != 3 {
		t.Errorf("surviving filter kept %v, want 3 MPI vertices", got)
	}
	if got := res.Output(h).Len(); got != 2 {
		t.Errorf("surviving hotspot kept %d, want 2", got)
	}
	// The failed member degraded to empty fallback outputs.
	if got := res.Output(bad); got == nil || got.Len() != 0 {
		t.Errorf("failed member output = %v, want empty fallback", got)
	}

	// Without degraded mode the same panic is fatal and names the pass.
	if _, err := g.Run(); err == nil || !strings.Contains(err.Error(), "exploding") {
		t.Errorf("fatal fused panic = %v, want error naming \"exploding\"", err)
	}
}

// badScanPass is a described scan pass whose kernel panics at visit index
// `at` (or in Finish when the sweep is shorter).
func badScanPass(name string, at int) Pass {
	return Describe(PassFunc{
		PassName: name,
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			panic("boom (unplanned)")
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalScan,
		Scan: func(in *Set) ScanKernel {
			return &boomKernel{at: at}
		},
	})
}

type boomKernel struct{ at, seen int }

func (k *boomKernel) Visit(i int, _ graph.VertexID) {
	if i >= k.at {
		panic("boom (fused)")
	}
	k.seen++
}

func (k *boomKernel) Finish() ([]*Set, error) { panic("boom (finish)") }

// TestPlannedMatchesUnplannedRandomGraphs is the equivalence property test:
// random PerFlowGraphs wired from the described pass pool produce identical
// per-node outputs with the plan compiler on and off, at 1 and 8 workers.
func TestPlannedMatchesUnplannedRandomGraphs(t *testing.T) {
	res := collect(t, analysisProgram(t), 8)
	env := res.TopDown

	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g, sinks := randomAnalysisGraph(rng, env)

		baseline, err := g.Run(WithPlanning(false), WithMaxWorkers(1))
		if err != nil {
			t.Fatalf("trial %d: unplanned run: %v", trial, err)
		}
		want := snapshotOutputs(baseline, sinks)

		for _, workers := range []int{1, 8} {
			for _, planned := range []bool{false, true} {
				run, err := g.Run(WithPlanning(planned), WithMaxWorkers(workers))
				if err != nil {
					t.Fatalf("trial %d (planned=%v, workers=%d): %v", trial, planned, workers, err)
				}
				got := snapshotOutputs(run, sinks)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d: outputs diverge (planned=%v, workers=%d)\nwant %v\ngot  %v",
						trial, planned, workers, want, got)
				}
			}
		}
	}
}

// randomAnalysisGraph wires 4-10 random described passes over env. Writer
// passes (imbalance, breakdown, wait-state) annotate the shared environment,
// so per the engine's annotation contract each writer runs After every node
// added before it and every later node runs After each earlier writer: no
// reader can overlap a writer. Every node is returned as a sink.
func randomAnalysisGraph(rng *rand.Rand, env *pag.PAG) (*PerFlowGraph, []*PNode) {
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(env))
	nodes := []*PNode{src}
	var writers []*PNode

	n := 4 + rng.Intn(7)
	for i := 0; i < n; i++ {
		pick := func() *PNode { return nodes[rng.Intn(len(nodes))] }
		var nd *PNode
		isWriter := false
		switch rng.Intn(8) {
		case 0:
			nd = g.AddPass(FilterPass("MPI_*"))
			g.Connect(pick(), 0, nd, 0)
		case 1:
			nd = g.AddPass(FilterPass("*"))
			g.Connect(pick(), 0, nd, 0)
		case 2:
			nd = g.AddPass(HotspotPass(pag.MetricExclTime, 1+rng.Intn(6)))
			g.Connect(pick(), 0, nd, 0)
		case 3:
			nd = g.AddPass(HotspotPass(pag.MetricTime, 1+rng.Intn(4)))
			g.Connect(pick(), 0, nd, 0)
		case 4:
			nd = g.AddPass(ImbalancePass(pag.MetricTime, 1.2))
			g.Connect(pick(), 0, nd, 0)
			isWriter = true
		case 5:
			nd = g.AddPass(BreakdownPass())
			g.Connect(pick(), 0, nd, 0)
			isWriter = true
		case 6:
			nd = g.AddPass(WaitStatePass())
			g.Connect(pick(), 0, nd, 0)
			isWriter = true
		case 7:
			nd = g.AddPass(UnionPass())
			g.Connect(pick(), 0, nd, 0)
			g.Connect(pick(), 0, nd, 1)
		}
		if isWriter {
			g.After(nd, nodes...)
			writers = append(writers, nd)
		} else {
			g.After(nd, writers...)
		}
		nodes = append(nodes, nd)
	}
	return g, nodes
}

// TestFusionOffPlanIsNodeDAG pins what WithPlanning(false) compiles to in
// the one executor: one single or fallback stage per node, stage i holding
// node i, and stage successor lists equal to the node successor lists.
func TestFusionOffPlanIsNodeDAG(t *testing.T) {
	res := collect(t, analysisProgram(t), 8)
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g, _ := randomAnalysisGraph(rng, res.TopDown)
		d, err := g.validate()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p := planOf(g, WithPlanning(false))
		if len(p.stages) != len(g.nodes) {
			t.Fatalf("trial %d: %d stages for %d nodes", trial, len(p.stages), len(g.nodes))
		}
		for i, st := range p.stages {
			if st.id != i || len(st.nodes) != 1 || st.nodes[0] != g.nodes[i] {
				t.Fatalf("trial %d: stage %d = %+v, want node %d alone", trial, i, st, i)
			}
			if st.kind != "single" && st.kind != "fallback" {
				t.Errorf("trial %d: stage %d kind %q, want single or fallback", trial, i, st.kind)
			}
		}
		if !reflect.DeepEqual(p.succs, d.succs) {
			t.Errorf("trial %d: stage succs %v != node succs %v", trial, p.succs, d.succs)
		}
		if p.trace != nil || len(p.mats) != 0 {
			t.Errorf("trial %d: fusion-off plan kept a decision record or hoisted materializations", trial)
		}
	}
}

// snapshotOutputs flattens every node's output sets into comparable
// [][]vertex-id / edge-id slices.
func snapshotOutputs(res *Results, nodes []*PNode) []string {
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		for _, s := range n.Outputs() {
			if s == nil {
				out = append(out, "<nil>")
				continue
			}
			out = append(out, fmt.Sprintf("V=%v E=%v", s.V, s.E))
		}
	}
	return out
}

func TestPlanTraceRendersStagesAndMaterializations(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	par := res.Parallel
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(par))
	cp := g.Chain(src, CriticalPathPass())
	bt := g.AddPass(BacktrackPass(0))
	g.Connect(cp, 0, bt, 0)

	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := g.Trace().Write(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{"== plan (", "topo(cached-csr)", "reverse-bfs(in-edges)", "materialized"} {
		if !strings.Contains(got, want) {
			t.Errorf("trace missing %q:\n%s", want, got)
		}
	}
}
