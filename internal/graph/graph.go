// Package graph implements the property-digraph substrate underlying the
// Program Abstraction Graph (PAG) and every graph algorithm PerFlow's passes
// rely on: traversal, lowest common ancestor, subgraph matching, community
// detection, critical-path extraction, and graph difference.
//
// The paper stores PAGs in igraph; this package is the from-scratch Go
// replacement. Vertices and edges carry an integer label (the semantic type,
// interpreted by package pag), a name, scalar metrics, per-process vector
// metrics, and string attributes (debug info and the like).
package graph

import (
	"fmt"
	"sync"
)

// VertexID identifies a vertex within one Graph. IDs are dense indices
// assigned in insertion order and are never reused.
type VertexID int32

// EdgeID identifies an edge within one Graph, dense in insertion order.
type EdgeID int32

// NoVertex is returned by lookups that find nothing.
const NoVertex VertexID = -1

// NoEdge is returned by edge lookups that find nothing.
const NoEdge EdgeID = -1

// Vertex is a node of a property digraph. Its metrics and attributes live
// in the owning graph's columns (see props.go) and are reached through the
// accessor methods.
type Vertex struct {
	ID    VertexID
	Name  string
	Label int // semantic type, interpreted by the owning layer (see pag)
	propRow
}

// Edge is a directed edge Src -> Dst of a property digraph.
type Edge struct {
	ID    EdgeID
	Src   VertexID
	Dst   VertexID
	Label int
	propRow
}

// Graph is a directed property graph with stable, dense vertex and edge IDs,
// created with New.
//
// Structural mutation (AddVertex, AddEdge) is not safe for concurrent use;
// concurrent reads — including Frozen() — are.
type Graph struct {
	vertices []Vertex
	edges    []Edge
	out      [][]EdgeID // outgoing edge IDs per vertex
	in       [][]EdgeID // incoming edge IDs per vertex

	// Property columns of vertices and edges. A DAG copy shares its
	// original's and must not be structurally mutated.
	vprops, eprops *props
	isDAGCopy      bool

	// version counts structural mutations; a Frozen snapshot is valid only
	// while the version it captured is current.
	version uint64

	frozenMu sync.Mutex
	frozen   *Frozen // cached snapshot, rebuilt lazily after mutation
}

// New returns an empty graph with capacity hints for nv vertices and ne edges.
func New(nv, ne int) *Graph {
	return &Graph{
		vertices: make([]Vertex, 0, nv),
		edges:    make([]Edge, 0, ne),
		out:      make([][]EdgeID, 0, nv),
		in:       make([][]EdgeID, 0, nv),
		vprops:   &props{hint: nv},
		eprops:   &props{hint: ne},
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex appends a vertex with the given name and label and returns its ID.
func (g *Graph) AddVertex(name string, label int) VertexID {
	g.checkMutable()
	id := VertexID(len(g.vertices))
	g.vertices = append(g.vertices, Vertex{ID: id, Name: name, Label: label, propRow: propRow{g.vprops, int32(id)}})
	g.vprops.grow()
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.version++
	return id
}

// AddEdge appends a directed edge src -> dst with the given label and returns
// its ID. It panics if either endpoint is out of range: edges are only ever
// created by builders that just created their endpoints, so a bad ID is a
// programming error, not an input error.
func (g *Graph) AddEdge(src, dst VertexID, label int) EdgeID {
	if !g.HasVertex(src) || !g.HasVertex(dst) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with %d vertices", src, dst, len(g.vertices)))
	}
	g.checkMutable()
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, Src: src, Dst: dst, Label: label, propRow: propRow{g.eprops, int32(id)}})
	g.eprops.grow()
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	g.version++
	return id
}

// Version returns the structural mutation counter: it changes on every
// AddVertex/AddEdge and is stable across metric and attribute updates.
// Callers use it to key caches of structure-derived artifacts (frozen
// views, DAG skeletons, ancestor sets) by (graph, version).
func (g *Graph) Version() uint64 { return g.version }

// checkMutable refuses to grow a DAG copy, whose columns belong to its
// original.
func (g *Graph) checkMutable() {
	if g.isDAGCopy {
		panic("graph: structural mutation of a DAG copy")
	}
}

// HasVertex reports whether id is a valid vertex of g.
func (g *Graph) HasVertex(id VertexID) bool {
	return id >= 0 && int(id) < len(g.vertices)
}

// HasEdge reports whether id is a valid edge of g.
func (g *Graph) HasEdge(id EdgeID) bool {
	return id >= 0 && int(id) < len(g.edges)
}

// Vertex returns a pointer to the vertex with the given ID. The pointer stays
// valid until the next AddVertex (callers must not retain it across growth).
func (g *Graph) Vertex(id VertexID) *Vertex { return &g.vertices[id] }

// Edge returns a pointer to the edge with the given ID.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// OutEdges returns the IDs of edges leaving v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) OutEdges(v VertexID) []EdgeID { return g.out[v] }

// InEdges returns the IDs of edges entering v.
func (g *Graph) InEdges(v VertexID) []EdgeID { return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v VertexID) int { return len(g.in[v]) }

// Successors returns the destination vertices of v's outgoing edges, in edge
// insertion order (duplicates preserved for parallel edges).
func (g *Graph) Successors(v VertexID) []VertexID {
	succ := make([]VertexID, len(g.out[v]))
	for i, eid := range g.out[v] {
		succ[i] = g.edges[eid].Dst
	}
	return succ
}

// Predecessors returns the source vertices of v's incoming edges.
func (g *Graph) Predecessors(v VertexID) []VertexID {
	pred := make([]VertexID, len(g.in[v]))
	for i, eid := range g.in[v] {
		pred[i] = g.edges[eid].Src
	}
	return pred
}

// FindEdge returns the ID of the first edge src -> dst, or NoEdge.
func (g *Graph) FindEdge(src, dst VertexID) EdgeID {
	for _, eid := range g.out[src] {
		if g.edges[eid].Dst == dst {
			return eid
		}
	}
	return NoEdge
}

// FindVertexByName returns the first vertex with the given name, or NoVertex.
// When a current Frozen snapshot exists (the collector freezes PAGs after
// construction) the lookup uses its name index in O(1); on a graph mutated
// since the last Frozen() it falls back to the linear scan.
func (g *Graph) FindVertexByName(name string) VertexID {
	if f := g.currentFrozen(); f != nil {
		return f.VertexByName(name)
	}
	for i := range g.vertices {
		if g.vertices[i].Name == name {
			return VertexID(i)
		}
	}
	return NoVertex
}

// currentFrozen returns the cached Frozen snapshot if it is still valid, or
// nil. Unlike Frozen() it never builds one.
func (g *Graph) currentFrozen() *Frozen {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if g.frozen != nil && g.frozen.version == g.version {
		return g.frozen
	}
	return nil
}

// VerticesWhere returns the IDs of all vertices for which pred returns true,
// in ID order.
func (g *Graph) VerticesWhere(pred func(*Vertex) bool) []VertexID {
	var ids []VertexID
	for i := range g.vertices {
		if pred(&g.vertices[i]) {
			ids = append(ids, VertexID(i))
		}
	}
	return ids
}

// EdgesWhere returns the IDs of all edges for which pred returns true.
func (g *Graph) EdgesWhere(pred func(*Edge) bool) []EdgeID {
	var ids []EdgeID
	for i := range g.edges {
		if pred(&g.edges[i]) {
			ids = append(ids, EdgeID(i))
		}
	}
	return ids
}

// Roots returns all vertices with in-degree zero, in ID order.
func (g *Graph) Roots() []VertexID {
	var roots []VertexID
	for i := range g.vertices {
		if len(g.in[i]) == 0 {
			roots = append(roots, VertexID(i))
		}
	}
	return roots
}

// Leaves returns all vertices with out-degree zero, in ID order.
func (g *Graph) Leaves() []VertexID {
	var leaves []VertexID
	for i := range g.vertices {
		if len(g.out[i]) == 0 {
			leaves = append(leaves, VertexID(i))
		}
	}
	return leaves
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.vertices), len(g.edges))
	c.copyStructure(g)
	c.copyPropsFrom(g, 0, 0, func(v []float64) []float64 {
		cv := make([]float64, len(v))
		copy(cv, v)
		return cv
	})
	return c
}

// copyStructure gives empty graph g src's vertices and edges (names,
// labels, endpoints, IDs; no properties), as AddVertex and AddEdge in ID
// order would, but carves the adjacency lists from one backing array per
// direction instead of growing a slice per vertex.
func (g *Graph) copyStructure(src *Graph) {
	for i := range src.vertices {
		v := &src.vertices[i]
		g.AddVertex(v.Name, v.Label)
	}
	carve := func(lists, srcLists [][]EdgeID) {
		buf := make([]EdgeID, len(src.edges))
		for v, l := range srcLists {
			lists[v], buf = buf[:0:len(l)], buf[len(l):]
		}
	}
	carve(g.out, src.out)
	carve(g.in, src.in)
	for i := range src.edges {
		e := &src.edges[i]
		g.AddEdge(e.Src, e.Dst, e.Label)
	}
}
