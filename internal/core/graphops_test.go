package core

import (
	"strings"
	"testing"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// buildOpsEnv: a -> b -> c with labelled edges, plus d -> b.
func buildOpsEnv() (*pag.PAG, *Set) {
	g := graph.New(4, 3)
	g.AddVertex("a", pag.VertexCompute)
	g.AddVertex("b", pag.VertexCommCall)
	g.AddVertex("c", pag.VertexCompute)
	g.AddVertex("d", pag.VertexCompute)
	g.AddEdge(0, 1, pag.EdgeIntraProc)
	g.AddEdge(1, 2, pag.EdgeIntraProc)
	g.AddEdge(3, 1, pag.EdgeInterProcess)
	env := &pag.PAG{G: g, NRanks: 1}
	s := NewSet(env)
	s.V = []graph.VertexID{1} // {b}
	return env, s
}

func TestNeighborsInOut(t *testing.T) {
	_, s := buildOpsEnv()
	in := s.Neighbors(In, AnyEdgeLabel)
	if len(in.V) != 2 {
		t.Fatalf("in-neighbors = %v", in.Names())
	}
	if in.Names()[0] != "a" || in.Names()[1] != "d" {
		t.Errorf("in-neighbors = %v", in.Names())
	}
	if len(in.E) != 2 {
		t.Errorf("traversed edges = %d", len(in.E))
	}
	out := s.Neighbors(Out, AnyEdgeLabel)
	if len(out.V) != 1 || out.Names()[0] != "c" {
		t.Errorf("out-neighbors = %v", out.Names())
	}
	// Label-filtered: only the inter-process in-edge.
	ip := s.Neighbors(In, pag.EdgeInterProcess)
	if len(ip.V) != 1 || ip.Names()[0] != "d" {
		t.Errorf("inter-process in-neighbors = %v", ip.Names())
	}
}

func TestSelectEdgesAndEndpoints(t *testing.T) {
	env, s := buildOpsEnv()
	es := s.SelectEdges(In, pag.EdgeIntraProc)
	if len(es) != 1 {
		t.Fatalf("selected edges = %v", es)
	}
	if env.G.Edge(es[0]).Src != 0 {
		t.Errorf("selected wrong edge")
	}
	srcs := s.Sources(es)
	if srcs.Len() != 1 || srcs.Names()[0] != "a" {
		t.Errorf("sources = %v", srcs.Names())
	}
	dsts := s.Destinations(es)
	if dsts.Len() != 1 || dsts.Names()[0] != "b" {
		t.Errorf("destinations = %v", dsts.Names())
	}
}

func TestAddVertexTo(t *testing.T) {
	_, s := buildOpsEnv()
	s.AddVertexTo(2)
	s.AddVertexTo(2)
	if s.Len() != 2 {
		t.Errorf("AddVertexTo dedup broken: %v", s.Names())
	}
}

// TestBacktrackingWithLowLevelOps re-implements the paper's Listing 7
// backtracking loop verbatim with the graph-operation API: neighbor
// acquisition, edge select by type, source acquisition — proving the
// low-level API is sufficient to write the paper's user-defined pass.
func TestBacktrackingWithLowLevelOps(t *testing.T) {
	res := collect(t, analysisProgram(t), 4)
	pv := res.Parallel

	// Start from the worst-waiting allreduce (the detected bug).
	start := AllVertices(pv).FilterName("MPI_Allreduce").SortBy(pag.MetricWait).Top(1)
	visited := NewSet(pv)
	cur := start.Clone()
	for depth := 0; depth < 32 && cur.Len() > 0; depth++ {
		visited.V = append(visited.V, cur.V...)
		// Prefer dependence edges; fall back to control flow — the
		// pass-selection logic of Listing 7 lines 16-22.
		es := cur.SelectEdges(In, pag.EdgeInterProcess)
		if len(es) == 0 {
			es = cur.SelectEdges(In, pag.EdgeInterThread)
		}
		if len(es) == 0 {
			es = cur.SelectEdges(In, pag.EdgeIntraProc)
		}
		if len(es) == 0 {
			break
		}
		cur = cur.Sources(es[:1])
	}
	foundOrigin := false
	for _, v := range visited.V {
		if strings.HasPrefix(pv.G.Vertex(v).Name, "halo_pack") {
			foundOrigin = true
		}
	}
	if !foundOrigin {
		t.Errorf("hand-written backtracking never reached the imbalanced compute: %v", visited.Names())
	}
}
