package graph

import "slices"

// Reference implementations on the mutable Graph that the product keeps
// only in its Frozen snapshot: tests run them as oracles of the Frozen
// kernels and of the algorithms built on them.

// CriticalPath returns the maximum-weight path through the DAG, where the
// weight of a path is the sum of vertex weights (weight(v) for each vertex
// on the path) plus edge weights (edgeWeight(e), may be nil for 0).
// It returns the vertices in path order, the edges connecting them, and the
// total weight. On a cyclic graph it returns nil, nil, 0.
func (g *Graph) CriticalPath(weight func(*Vertex) float64, edgeWeight func(*Edge) float64) ([]VertexID, []EdgeID, float64) {
	order, ok := g.TopoSort()
	if !ok {
		return nil, nil, 0
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, nil, 0
	}
	dist := make([]float64, n)
	prev := make([]EdgeID, n)
	for i := range prev {
		prev[i] = NoEdge
		dist[i] = weight(&g.vertices[i])
	}
	for _, v := range order {
		for _, eid := range g.out[v] {
			e := &g.edges[eid]
			ew := 0.0
			if edgeWeight != nil {
				ew = edgeWeight(e)
			}
			cand := dist[v] + ew + weight(&g.vertices[e.Dst])
			if cand > dist[e.Dst] {
				dist[e.Dst] = cand
				prev[e.Dst] = eid
			}
		}
	}
	// Find the global maximum endpoint.
	end := VertexID(0)
	for i := 1; i < n; i++ {
		if dist[i] > dist[end] {
			end = VertexID(i)
		}
	}
	var vRev []VertexID
	var eRev []EdgeID
	for v := end; ; {
		vRev = append(vRev, v)
		eid := prev[v]
		if eid == NoEdge {
			break
		}
		eRev = append(eRev, eid)
		v = g.edges[eid].Src
	}
	slices.Reverse(vRev)
	slices.Reverse(eRev)
	return vRev, eRev, dist[end]
}

// ReverseBFS visits every vertex from which start is reachable (i.e. walks
// incoming edges), in breadth-first order.
func (g *Graph) ReverseBFS(start VertexID, visit func(VertexID) bool) {
	if !g.HasVertex(start) {
		return
	}
	seen := make([]bool, len(g.vertices))
	queue := []VertexID{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !visit(v) {
			return
		}
		for _, eid := range g.in[v] {
			s := g.edges[eid].Src
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
}

// Depths returns, for every vertex, the length of the longest path from any
// root (in-degree-zero vertex) to it. Only valid on DAGs; returns ok=false
// on cyclic graphs. Depth of a root is 0. Used by the DAG lowest-common-
// ancestor search, which wants the "deepest" common ancestor.
func (g *Graph) Depths() (depths []int, ok bool) {
	order, ok := g.TopoSort()
	if !ok {
		return nil, false
	}
	depths = make([]int, len(g.vertices))
	for _, v := range order {
		for _, eid := range g.out[v] {
			d := g.edges[eid].Dst
			if depths[v]+1 > depths[d] {
				depths[d] = depths[v] + 1
			}
		}
	}
	return depths, true
}

// TopoSort returns a topological order of all vertices, or ok=false if the
// graph contains a cycle. Kahn's algorithm; ties broken by vertex ID for
// determinism.
func (g *Graph) TopoSort() (order []VertexID, ok bool) {
	n := len(g.vertices)
	indeg := make([]int, n)
	for i := range g.vertices {
		indeg[i] = len(g.in[i])
	}
	// Min-heap by ID would be O(E log V); with dense IDs a simple sorted
	// frontier per round is adequate for PAG sizes. Use a FIFO of ready
	// vertices seeded in ID order.
	ready := make([]VertexID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, VertexID(i))
		}
	}
	order = make([]VertexID, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, eid := range g.out[v] {
			d := g.edges[eid].Dst
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	return order, len(order) == n
}

// HasCycle reports whether g contains a directed cycle.
func (g *Graph) HasCycle() bool {
	_, ok := g.TopoSort()
	return !ok
}
