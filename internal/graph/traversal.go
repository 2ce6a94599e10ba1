package graph

// Traversals on the mutable graph: breadth-first search and reachability
// sets. Passes traverse the Frozen snapshot, which also holds the
// topological order.

// BFS visits every vertex reachable from start in breadth-first order,
// calling visit for each. If visit returns false the traversal stops early.
// Each reachable vertex is visited exactly once.
func (g *Graph) BFS(start VertexID, visit func(VertexID) bool) {
	if !g.HasVertex(start) {
		return
	}
	seen := make([]bool, len(g.vertices))
	queue := make([]VertexID, 0, 16)
	queue = append(queue, start)
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !visit(v) {
			return
		}
		for _, eid := range g.out[v] {
			d := g.edges[eid].Dst
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
	}
}

// Reachable returns the set of vertices reachable from start (including
// start itself) as a boolean slice indexed by VertexID.
func (g *Graph) Reachable(start VertexID) []bool {
	seen := make([]bool, len(g.vertices))
	if !g.HasVertex(start) {
		return seen
	}
	queue := []VertexID{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, eid := range g.out[v] {
			d := g.edges[eid].Dst
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
	}
	return seen
}
