package core

import (
	"sort"

	"perflow/internal/graph"
)

// Graph-operation APIs on sets (paper §4.3.1): neighbor acquisition, edge
// selection, and source/destination navigation — the primitives Listing 7's
// backtracking pass is written with (v.es.select(IN_EDGE),
// es.select(type=...), e.src). Unlike set operations, graph operations may
// add elements not present in the input (O ⊄ I).

// Direction selects which incident edges to navigate.
type Direction int

// Edge directions.
const (
	In Direction = iota
	Out
)

// AnyEdgeLabel matches every edge label in Neighbors/SelectEdges.
const AnyEdgeLabel = -1

// Neighbors returns the set of vertices adjacent to the input vertices
// through edges with the given label (AnyEdgeLabel for all), following
// incoming or outgoing edges. The result is deduplicated, in discovery
// order; the traversed edges are included in the result's edge list.
func (s *Set) Neighbors(dir Direction, edgeLabel int) *Set {
	out := NewSet(s.PAG)
	seenV := map[graph.VertexID]bool{}
	seenE := map[graph.EdgeID]bool{}
	for _, vid := range s.V {
		var eids []graph.EdgeID
		if dir == In {
			eids = s.PAG.G.InEdges(vid)
		} else {
			eids = s.PAG.G.OutEdges(vid)
		}
		for _, eid := range eids {
			e := s.PAG.G.Edge(eid)
			if edgeLabel != AnyEdgeLabel && e.Label != edgeLabel {
				continue
			}
			other := e.Src
			if dir == Out {
				other = e.Dst
			}
			if !seenE[eid] {
				seenE[eid] = true
				out.E = append(out.E, eid)
			}
			if !seenV[other] {
				seenV[other] = true
				out.V = append(out.V, other)
			}
		}
	}
	return out
}

// SelectEdges returns the incident edges of the set's vertices with the
// given label, deduplicated — the paper's es.select(type=...).
func (s *Set) SelectEdges(dir Direction, edgeLabel int) []graph.EdgeID {
	seen := map[graph.EdgeID]bool{}
	var out []graph.EdgeID
	for _, vid := range s.V {
		var eids []graph.EdgeID
		if dir == In {
			eids = s.PAG.G.InEdges(vid)
		} else {
			eids = s.PAG.G.OutEdges(vid)
		}
		for _, eid := range eids {
			if edgeLabel != AnyEdgeLabel && s.PAG.G.Edge(eid).Label != edgeLabel {
				continue
			}
			if !seen[eid] {
				seen[eid] = true
				out = append(out, eid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sources returns the set of source vertices of the given edges — e.src.
func (s *Set) Sources(edges []graph.EdgeID) *Set {
	out := NewSet(s.PAG)
	seen := map[graph.VertexID]bool{}
	for _, eid := range edges {
		src := s.PAG.G.Edge(eid).Src
		if !seen[src] {
			seen[src] = true
			out.V = append(out.V, src)
		}
	}
	return out
}

// Destinations returns the set of destination vertices of the given edges.
func (s *Set) Destinations(edges []graph.EdgeID) *Set {
	out := NewSet(s.PAG)
	seen := map[graph.VertexID]bool{}
	for _, eid := range edges {
		dst := s.PAG.G.Edge(eid).Dst
		if !seen[dst] {
			seen[dst] = true
			out.V = append(out.V, dst)
		}
	}
	return out
}

// AddVertexTo adds a vertex to the set if not present (graph operations may
// grow sets).
func (s *Set) AddVertexTo(v graph.VertexID) {
	if !s.Contains(v) {
		s.V = append(s.V, v)
	}
}
