// Package core implements the paper's primary contribution: the PerFlow
// programming abstraction (§4). Analysis tasks are expressed as dataflow
// graphs (PerFlowGraphs) whose vertices are passes — analysis sub-tasks
// built from graph operations, graph algorithms and set operations on the
// PAG — and whose edges carry sets of PAG vertices and edges.
package core

import (
	"fmt"
	"slices"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// Set is the unit of data flowing along PerFlowGraph edges: a subset of one
// PAG's vertices and edges. The PAG is the environment shared by all passes
// of a PerFlowGraph (paper §2.1); passes may swap in a derived environment
// (differential analysis outputs a set over the diff PAG).
type Set struct {
	PAG *pag.PAG
	V   []graph.VertexID
	E   []graph.EdgeID
}

// NewSet returns an empty set over env.
func NewSet(env *pag.PAG) *Set { return &Set{PAG: env} }

// AllVertices returns the set of every vertex of env.
func AllVertices(env *pag.PAG) *Set {
	s := NewSet(env)
	s.V = make([]graph.VertexID, env.G.NumVertices())
	for i := range s.V {
		s.V[i] = graph.VertexID(i)
	}
	return s
}

// Clone returns a copy sharing the environment but not the slices.
func (s *Set) Clone() *Set {
	c := &Set{PAG: s.PAG, V: make([]graph.VertexID, len(s.V)), E: make([]graph.EdgeID, len(s.E))}
	copy(c.V, s.V)
	copy(c.E, s.E)
	return c
}

// Len returns the number of vertices in the set.
func (s *Set) Len() int { return len(s.V) }

// Vertex returns the i-th vertex record.
func (s *Set) Vertex(i int) *graph.Vertex { return s.PAG.G.Vertex(s.V[i]) }

// Contains reports whether the set holds vertex v.
func (s *Set) Contains(v graph.VertexID) bool {
	for _, x := range s.V {
		if x == v {
			return true
		}
	}
	return false
}

// ---- set operation APIs (paper §4.3.1: sorting, filtering, classification,
// intersection, union, complement, difference; outputs ⊆ inputs) ----

// Filter returns the subset of vertices satisfying pred, by the filter
// passes' kernel.
func (s *Set) Filter(pred func(*graph.Vertex) bool) *Set { return scan(newFilterKernel(s, pred), s) }

// FilterName returns the subset whose names match a glob pattern with a
// single optional trailing '*' (the paper's filter example: "MPI_*").
func (s *Set) FilterName(pattern string) *Set {
	return s.Filter(func(v *graph.Vertex) bool { return globMatch(pattern, v.Name) })
}

// FilterLabel returns the subset with the given vertex label.
func (s *Set) FilterLabel(label int) *Set {
	return s.Filter(func(v *graph.Vertex) bool { return v.Label == label })
}

// GlobMatch matches pattern against name with the set layer's glob rules;
// exported so differential summaries and policy facts (hotspot_share)
// match exactly like Set.FilterName.
func GlobMatch(pattern, name string) bool { return globMatch(pattern, name) }

// globMatch matches pattern against name; '*' matches any suffix/infix run.
func globMatch(pattern, name string) bool {
	// Simple backtracking glob supporting '*' anywhere.
	var match func(p, n string) bool
	match = func(p, n string) bool {
		for len(p) > 0 {
			if p[0] == '*' {
				for p != "" && p[0] == '*' {
					p = p[1:]
				}
				if p == "" {
					return true
				}
				for i := 0; i <= len(n); i++ {
					if match(p, n[i:]) {
						return true
					}
				}
				return false
			}
			if len(n) == 0 || p[0] != n[0] {
				return false
			}
			p, n = p[1:], n[1:]
		}
		return len(n) == 0
	}
	return match(pattern, name)
}

// SortBy returns a copy sorted by the metric, descending; ties broken by
// vertex ID for determinism.
func (s *Set) SortBy(metric string) *Set {
	c := s.Clone()
	sortByColumn(c.V, c.PAG.G.VertexMetricColumn(metric), false)
	return c
}

// SortByAbs sorts by the absolute value of the metric, descending — the
// order differential analysis wants (big negative changes matter too).
func (s *Set) SortByAbs(metric string) *Set {
	c := s.Clone()
	sortByColumn(c.V, c.PAG.G.VertexMetricColumn(metric), true)
	return c
}

// sortByColumn orders ids by col value (absolute value when abs) under
// cmpKeyed: descending, NaN last, ties to the lower ID; a nil column reads
// 0 everywhere. cmpKeyed is total, so an unstable sort gives the one order
// a stable sort would.
func sortByColumn(ids []graph.VertexID, col []float64, abs bool) {
	key := func(id graph.VertexID) float64 {
		if col == nil {
			return 0
		}
		x := col[id]
		if abs && x < 0 {
			return -x
		}
		return x
	}
	slices.SortFunc(ids, func(a, b graph.VertexID) int {
		return cmpKeyed(keyed{a, key(a)}, keyed{b, key(b)})
	})
}

// Top returns the first n vertices of the set (use after SortBy).
func (s *Set) Top(n int) *Set {
	c := s.Clone()
	if n < len(c.V) {
		c.V = c.V[:n]
	}
	return c
}

// Union returns s ∪ o (same environment required), deduplicated, in first-
// occurrence order.
func (s *Set) Union(o *Set) (*Set, error) {
	if s.PAG != o.PAG {
		return nil, fmt.Errorf("core: union of sets over different PAGs")
	}
	out := NewSet(s.PAG)
	seen := map[graph.VertexID]bool{}
	for _, v := range append(append([]graph.VertexID{}, s.V...), o.V...) {
		if !seen[v] {
			seen[v] = true
			out.V = append(out.V, v)
		}
	}
	seenE := map[graph.EdgeID]bool{}
	for _, e := range append(append([]graph.EdgeID{}, s.E...), o.E...) {
		if !seenE[e] {
			seenE[e] = true
			out.E = append(out.E, e)
		}
	}
	return out, nil
}

// Intersect returns s ∩ o.
func (s *Set) Intersect(o *Set) (*Set, error) {
	if s.PAG != o.PAG {
		return nil, fmt.Errorf("core: intersection of sets over different PAGs")
	}
	in := map[graph.VertexID]bool{}
	for _, v := range o.V {
		in[v] = true
	}
	out := NewSet(s.PAG)
	for _, v := range s.V {
		if in[v] {
			out.V = append(out.V, v)
		}
	}
	return out, nil
}

// Difference returns s \ o.
func (s *Set) Difference(o *Set) (*Set, error) {
	if s.PAG != o.PAG {
		return nil, fmt.Errorf("core: difference of sets over different PAGs")
	}
	in := map[graph.VertexID]bool{}
	for _, v := range o.V {
		in[v] = true
	}
	out := NewSet(s.PAG)
	for _, v := range s.V {
		if !in[v] {
			out.V = append(out.V, v)
		}
	}
	return out, nil
}

// Complement returns all environment vertices not in s.
func (s *Set) Complement() *Set {
	return mustSet(AllVertices(s.PAG).Difference(s))
}

func mustSet(s *Set, err error) *Set {
	if err != nil {
		panic("core: " + err.Error())
	}
	return s
}

// Classify partitions the set by a key function, with deterministic
// (sorted-key) group order.
func (s *Set) Classify(key func(*graph.Vertex) string) map[string]*Set {
	groups := map[string]*Set{}
	for _, v := range s.V {
		k := key(s.PAG.G.Vertex(v))
		g := groups[k]
		if g == nil {
			g = NewSet(s.PAG)
			groups[k] = g
		}
		g.V = append(g.V, v)
	}
	return groups
}

// Names returns the vertex names in set order (mostly for tests/reports).
func (s *Set) Names() []string {
	out := make([]string, len(s.V))
	for i, v := range s.V {
		out[i] = s.PAG.G.Vertex(v).Name
	}
	return out
}
