package pag

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/mpisim"
	"perflow/internal/workloads"
)

// flowOracle is the brute-force flow index: every vertex with an IR node
// and both the rank and the thread metric, keyed by (rank, thread, node),
// built from NodeOf and the metrics alone.
func flowOracle(t *testing.T, p *PAG) map[FlowKey]graph.VertexID {
	t.Helper()
	want := map[FlowKey]graph.VertexID{}
	for i := 0; i < p.G.NumVertices(); i++ {
		v := p.G.Vertex(graph.VertexID(i))
		r, hasR := v.LookupMetric(MetricRank)
		th, hasT := v.LookupMetric(MetricThread)
		n := p.NodeOf(graph.VertexID(i))
		if !hasR || !hasT || n == ir.NoNode {
			continue
		}
		k := FlowKey{Rank: int32(r), Thread: int32(th), Node: n}
		if old, dup := want[k]; dup {
			t.Fatalf("vertices %d and %d share flow key %+v", old, i, k)
		}
		want[k] = graph.VertexID(i)
	}
	return want
}

// checkFlowIndex compares FlowVertex with the oracle on every key the
// oracle holds and on every (rank, thread) around the view's bounds for
// each of its nodes, plus nodes that own no flow vertex.
func checkFlowIndex(t *testing.T, name string, p *PAG) {
	t.Helper()
	want := flowOracle(t, p)
	if len(want) == 0 {
		t.Fatalf("%s: oracle is empty", name)
	}
	nodes := map[ir.NodeID]bool{ir.NoNode: true, ir.NodeID(1 << 20): true}
	for k, v := range want {
		nodes[k.Node] = true
		if got := p.FlowVertex(k.Rank, k.Thread, k.Node); got != v {
			t.Fatalf("%s: FlowVertex%+v = %d, want %d", name, k, got, v)
		}
	}
	for n := range nodes {
		for r := int32(-1); r <= int32(p.NRanks); r++ {
			for th := int32(-2); th <= int32(p.NThreads); th++ {
				w, ok := want[FlowKey{Rank: r, Thread: th, Node: n}]
				if !ok {
					w = graph.NoVertex
				}
				if got := p.FlowVertex(r, th, n); got != w {
					t.Fatalf("%s: FlowVertex(%d, %d, %d) = %d, want %d", name, r, th, n, got, w)
				}
			}
		}
	}
}

// TestFlowIndexMatchesOracle pins the flow index of the parallel view, as
// built and after a Save/Load round trip, against the brute-force oracle.
func TestFlowIndexMatchesOracle(t *testing.T) {
	type tc struct {
		prog           *ir.Program
		ranks, threads int
	}
	var cases []tc
	for _, name := range []string{"cg", "zeusmp", "lu"} {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{prog, 8, 0}, tc{prog, 64, 0})
	}
	cases = append(cases, tc{workloads.Vite(false), 4, 4})
	for _, c := range cases {
		name := fmt.Sprintf("%s/r%d/t%d", c.prog.Name, c.ranks, c.threads)
		run, err := mpisim.Run(c.prog, mpisim.Config{NRanks: c.ranks, Threads: c.threads})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pv := BuildParallel(run)
		checkFlowIndex(t, name, pv)
		var buf bytes.Buffer
		if err := pv.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, c.prog)
		if err != nil {
			t.Fatal(err)
		}
		checkFlowIndex(t, name+"/loaded", loaded)
	}
}

// TestFlowIndexUnorderedVertices checks the index of a view whose flow
// vertices arrive in no (rank, thread) order, as a hand-written file may
// hold them (a built view creates them almost in order), after a
// Save/Load round trip.
func TestFlowIndexUnorderedVertices(t *testing.T) {
	g := graph.New(0, 0)
	p := &PAG{G: g, View: Parallel, NRanks: 3, NThreads: 2}
	var keys []FlowKey
	for n := ir.NodeID(0); n < 4; n++ {
		for r := int32(0); r < 3; r++ {
			for th := int32(-1); th < 2; th++ {
				keys = append(keys, FlowKey{Rank: r, Thread: th, Node: n})
			}
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		v := g.Vertex(g.AddVertex(fmt.Sprint("n", k.Node), VertexCompute))
		v.SetMetric(MetricRank, float64(k.Rank))
		v.SetMetric(MetricThread, float64(k.Thread))
		p.nodeOf = append(p.nodeOf, k.Node)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFlowIndex(t, "shuffled", loaded)
}
