package graph

// Traversals on the mutable graph: breadth-first search, depth-first
// search (pre-order) and reachability sets. Passes traverse the Frozen
// snapshot, which also holds the topological order.

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

// BFSOrder returns the vertices reachable from start in BFS order.
func (g *Graph) BFSOrder(start VertexID) []VertexID {
	var order []VertexID
	g.BFS(start, func(v VertexID) bool {
		order = append(order, v)
		return true
	})
	return order
}

// DFSPreorder visits every vertex reachable from start in depth-first
// pre-order, following outgoing edges in insertion order. This is the order
// used to generate per-process "flows" for the parallel view of the PAG
// (paper §3.4). If visit returns false the traversal stops.
func (g *Graph) DFSPreorder(start VertexID, visit func(VertexID) bool) {
	if !g.HasVertex(start) {
		return
	}
	seen := make([]bool, len(g.vertices))
	// Explicit stack; push children in reverse so insertion order pops first.
	stack := []VertexID{start}
	seen[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !visit(v) {
			return
		}
		outs := g.out[v]
		for i := len(outs) - 1; i >= 0; i-- {
			d := g.edges[outs[i]].Dst
			if !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
}

// DFSPreorderFiltered behaves like DFSPreorder but only follows edges for
// which follow returns true. A vertex may be reached through several
// qualifying edges; it is still visited only once.
func (g *Graph) DFSPreorderFiltered(start VertexID, follow func(*Edge) bool, visit func(VertexID) bool) {
	if !g.HasVertex(start) {
		return
	}
	seen := make([]bool, len(g.vertices))
	stack := []VertexID{start}
	seen[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !visit(v) {
			return
		}
		outs := g.out[v]
		for i := len(outs) - 1; i >= 0; i-- {
			e := &g.edges[outs[i]]
			if !follow(e) {
				continue
			}
			if !seen[e.Dst] {
				seen[e.Dst] = true
				stack = append(stack, e.Dst)
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
