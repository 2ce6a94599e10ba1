package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddVertexEdgeBasics(t *testing.T) {
	g := New(4, 4)
	a := g.AddVertex("a", 1)
	b := g.AddVertex("b", 2)
	c := g.AddVertex("c", 1)
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	e1 := g.AddEdge(a, b, 10)
	e2 := g.AddEdge(b, c, 11)
	e3 := g.AddEdge(a, c, 12)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.Edge(e1).Src != a || g.Edge(e1).Dst != b {
		t.Errorf("edge e1 endpoints wrong: %+v", g.Edge(e1))
	}
	if got := g.OutDegree(a); got != 2 {
		t.Errorf("OutDegree(a) = %d, want 2", got)
	}
	if got := g.InDegree(c); got != 2 {
		t.Errorf("InDegree(c) = %d, want 2", got)
	}
	if g.FindEdge(a, c) != e3 {
		t.Errorf("FindEdge(a, c) = %d, want %d", g.FindEdge(a, c), e3)
	}
	if g.FindEdge(c, a) != NoEdge {
		t.Errorf("FindEdge(c, a) should be NoEdge")
	}
	succ := g.Successors(a)
	if len(succ) != 2 || succ[0] != b || succ[1] != c {
		t.Errorf("Successors(a) = %v", succ)
	}
	pred := g.Predecessors(c)
	if len(pred) != 2 || pred[0] != b || pred[1] != a {
		t.Errorf("Predecessors(c) = %v", pred)
	}
	_ = e2
}

func TestAddEdgePanicsOnBadVertex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge with invalid vertex did not panic")
		}
	}()
	g := New(1, 1)
	v := g.AddVertex("v", 0)
	g.AddEdge(v, v+5, 0)
}

func TestVertexMetricsAndAttrs(t *testing.T) {
	g := New(1, 0)
	id := g.AddVertex("f", 0)
	v := g.Vertex(id)
	if v.Metric("time") != 0 {
		t.Errorf("missing metric should read 0")
	}
	v.SetMetric("time", 1.5)
	v.AddMetric("time", 0.5)
	if v.Metric("time") != 2.0 {
		t.Errorf("time = %v, want 2.0", v.Metric("time"))
	}
	v.AddVecAt("time", 3, 7)
	vec := v.Vec("time")
	if len(vec) != 4 || vec[3] != 7 || vec[0] != 0 {
		t.Errorf("vec = %v", vec)
	}
	v.SetAttr("debug", "x.c:12")
	if v.Attr("debug") != "x.c:12" {
		t.Errorf("attr = %q", v.Attr("debug"))
	}
	if v.Attr("missing") != "" {
		t.Errorf("missing attr should be empty")
	}
}

func TestFindVertexByNameAndWhere(t *testing.T) {
	g := New(3, 0)
	g.AddVertex("main", 0)
	g.AddVertex("MPI_Send", 1)
	g.AddVertex("MPI_Recv", 1)
	if g.FindVertexByName("MPI_Recv") != 2 {
		t.Errorf("FindVertexByName failed")
	}
	if g.FindVertexByName("nope") != NoVertex {
		t.Errorf("FindVertexByName should miss")
	}
	comm := g.VerticesWhere(func(v *Vertex) bool { return v.Label == 1 })
	if len(comm) != 2 || comm[0] != 1 || comm[1] != 2 {
		t.Errorf("VerticesWhere = %v", comm)
	}
}

func TestRootsLeaves(t *testing.T) {
	g := chainGraph(4)
	roots, leaves := g.Roots(), g.Leaves()
	if len(roots) != 1 || roots[0] != 0 {
		t.Errorf("Roots = %v", roots)
	}
	if len(leaves) != 1 || leaves[0] != 3 {
		t.Errorf("Leaves = %v", leaves)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(2, 1)
	a := g.AddVertex("a", 0)
	b := g.AddVertex("b", 0)
	g.Vertex(a).SetMetric("time", 1)
	g.Vertex(a).SetVec("time", []float64{1, 2})
	e := g.AddEdge(a, b, 0)
	g.Edge(e).SetMetric("bytes", 10)

	c := g.Clone()
	c.Vertex(a).SetMetric("time", 99)
	c.Vertex(a).Vec("time")[0] = 99
	c.Edge(0).SetMetric("bytes", 99)
	if g.Vertex(a).Metric("time") != 1 || g.Vertex(a).Vec("time")[0] != 1 {
		t.Errorf("Clone shares vertex data")
	}
	if g.Edge(0).Metric("bytes") != 10 {
		t.Errorf("Clone shares edge data")
	}
	if c.NumVertices() != 2 || c.NumEdges() != 1 {
		t.Errorf("Clone wrong shape")
	}
}

// chainGraph builds v0 -> v1 -> ... -> v_{n-1}.
func chainGraph(n int) *Graph {
	g := New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddVertex("v", 0)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1), 0)
	}
	return g
}

// randomDAG builds a DAG with n vertices and roughly density*n*(n-1)/2
// forward edges, deterministic under seed.
func randomDAG(n int, density float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, 0)
	for i := 0; i < n; i++ {
		g.AddVertex("v", i%3)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				g.AddEdge(VertexID(i), VertexID(j), (i+j)%2)
			}
		}
	}
	return g
}

func TestBFSVisitsReachableOnce(t *testing.T) {
	g := randomDAG(50, 0.1, 1)
	count := map[VertexID]int{}
	g.BFS(0, func(v VertexID) bool {
		count[v]++
		return true
	})
	for v, c := range count {
		if c != 1 {
			t.Errorf("vertex %d visited %d times", v, c)
		}
	}
	reach := g.Reachable(0)
	for i, r := range reach {
		if r != (count[VertexID(i)] == 1) {
			t.Errorf("reachability mismatch at %d: reach=%v visited=%v", i, r, count[VertexID(i)] == 1)
		}
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := chainGraph(10)
	n := 0
	g.BFS(0, func(VertexID) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestTopoSortDAGAndCycle(t *testing.T) {
	g := randomDAG(40, 0.15, 2)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("random DAG reported cyclic")
	}
	pos := make([]int, g.NumVertices())
	for i, v := range order {
		pos[v] = i
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(EdgeID(i))
		if pos[e.Src] >= pos[e.Dst] {
			t.Errorf("topo order violates edge %d->%d", e.Src, e.Dst)
		}
	}
	// Add a back edge to make a cycle.
	g.AddEdge(order[len(order)-1], order[0], 0)
	if !g.HasCycle() {
		t.Error("cycle not detected")
	}
}

func TestDepths(t *testing.T) {
	// Diamond: 0 -> 1 -> 3, 0 -> 2 -> 3 plus direct 0 -> 3.
	g := New(4, 5)
	for i := 0; i < 4; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(0, 3, 0)
	d, ok := g.Depths()
	if !ok {
		t.Fatal("Depths on DAG failed")
	}
	want := []int{0, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("depth[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

// Property: BFS from any start of a random DAG visits exactly the reachable
// set, each vertex once.
func TestBFSReachabilityProperty(t *testing.T) {
	f := func(seed int64, startRaw uint8) bool {
		g := randomDAG(30, 0.12, seed)
		start := VertexID(int(startRaw) % g.NumVertices())
		visits := map[VertexID]int{}
		g.BFS(start, func(v VertexID) bool { visits[v]++; return true })
		reach := g.Reachable(start)
		for i := range reach {
			want := 0
			if reach[i] {
				want = 1
			}
			if visits[VertexID(i)] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a topological order of a random DAG respects every edge.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(25, 0.2, seed)
		order, ok := g.TopoSort()
		if !ok || len(order) != g.NumVertices() {
			return false
		}
		pos := make([]int, g.NumVertices())
		for i, v := range order {
			pos[v] = i
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(EdgeID(i))
			if pos[e.Src] >= pos[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
