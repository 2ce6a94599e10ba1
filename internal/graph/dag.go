package graph

// DAGCopy returns an acyclic copy of g produced by dropping the back edges
// of a deterministic depth-first search (a directed graph is cyclic iff a
// DFS finds a back edge, so removing them always yields a DAG). Vertex IDs
// are preserved; origEdge maps each copy edge ID to the source edge ID in
// g. Passes that need DAG algorithms (LCA, critical path) run on the copy
// and translate edges back. If g is already acyclic the copy is exact.
//
// The copy reads g's metrics and attributes (it shares g's columns, see
// props.go) and must not itself be structurally mutated.
func DAGCopy(g *Graph) (dag *Graph, origEdge []EdgeID) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(g.vertices)
	color := make([]byte, n)
	isBack := make([]bool, len(g.edges))

	// Iterative DFS over all vertices in ID order.
	type frame struct {
		v  VertexID
		ei int // next out-edge index to explore
	}
	var stack []frame
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], frame{v: VertexID(start)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			outs := g.out[f.v]
			if f.ei >= len(outs) {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			eid := outs[f.ei]
			f.ei++
			d := g.edges[eid].Dst
			switch color[d] {
			case white:
				color[d] = gray
				stack = append(stack, frame{v: d})
			case gray:
				isBack[eid] = true
			}
		}
	}

	// Vertices keep their IDs and edges their source edge's column row, so
	// updates to g after this point stay visible through the copy.
	dag = &Graph{
		vertices:  append([]Vertex(nil), g.vertices...),
		edges:     make([]Edge, 0, len(g.edges)),
		out:       make([][]EdgeID, n),
		in:        make([][]EdgeID, n),
		vprops:    g.vprops,
		eprops:    g.eprops,
		isDAGCopy: true,
	}
	for i := range g.edges {
		if isBack[i] {
			continue
		}
		e := g.edges[i]
		e.ID = EdgeID(len(dag.edges))
		dag.edges = append(dag.edges, e)
		dag.out[e.Src] = append(dag.out[e.Src], e.ID)
		dag.in[e.Dst] = append(dag.in[e.Dst], e.ID)
		origEdge = append(origEdge, EdgeID(i))
	}
	return dag, origEdge
}
