package graph

import "math/bits"

// Lowest common ancestor on DAGs, used by the causal-analysis pass
// (paper §4.3.2 C). The goal is the deepest vertex that has both query
// vertices as descendants, where "deepest" means maximal longest-path depth
// from the roots, matching Schieber–Vishkin-style LCA generalized to DAGs.
//
// The causal pass issues many queries against one PAG (every pair of
// detected victims), so the finder is built for query reuse: ancestor sets
// are packed []uint64 bitsets computed over the frozen CSR view, cached
// across queries, and intersected word-wise; path reconstruction reuses
// finder-local scratch. A finder is NOT safe for concurrent use — build one
// per goroutine (they share the underlying Frozen snapshot, which is).
type LCAFinder struct {
	g      *Graph
	f      *Frozen
	depths []int32
	valid  bool
	nwords int

	// anc caches the ancestor bitset of every queried vertex.
	anc map[VertexID][]uint64

	// query scratch, reused across Query calls.
	bfsQueue   []VertexID
	seen       []bool
	parentEdge []EdgeID
}

// NewLCAFinder prepares LCA queries on g. If g is cyclic the finder is
// created but every query returns NoVertex. Building one freezes g's
// current structure; mutating g afterwards and reusing the finder panics.
func NewLCAFinder(g *Graph) *LCAFinder {
	f := g.Frozen()
	depths, ok := f.Depths()
	n := f.NumVertices()
	return &LCAFinder{
		g: g, f: f, depths: depths, valid: ok,
		nwords:     (n + 63) / 64,
		anc:        make(map[VertexID][]uint64, 16),
		seen:       make([]bool, n),
		parentEdge: make([]EdgeID, n),
	}
}

// Valid reports whether the underlying graph was acyclic at construction.
func (f *LCAFinder) Valid() bool { return f.valid }

// ancestorBits returns the ancestor set of v (including v itself) as a
// bitset indexed by VertexID, computed by the direction-optimizing reverse
// traversal over the frozen CSR and cached for subsequent queries.
func (f *LCAFinder) ancestorBits(v VertexID) []uint64 {
	if bs, ok := f.anc[v]; ok {
		return bs
	}
	bs := make([]uint64, f.nwords)
	q, _ := f.f.AncestorBits(v, bs, f.bfsQueue)
	f.bfsQueue = q[:0]
	f.anc[v] = bs
	return bs
}

// Query returns the deepest common ancestor of a and b and one path from
// that ancestor to each query vertex (pathA leads to a, pathB to b). Paths
// are slices of edge IDs in ancestor-to-descendant order. If no common
// ancestor exists (or the graph is cyclic), it returns NoVertex and nil
// paths. A vertex counts as its own ancestor, so Query(v, v) == v and if a
// is an ancestor of b, Query(a, b) == a.
func (f *LCAFinder) Query(a, b VertexID) (lca VertexID, pathA, pathB []EdgeID) {
	if !f.valid || !f.g.HasVertex(a) || !f.g.HasVertex(b) {
		return NoVertex, nil, nil
	}
	ancA := f.ancestorBits(a)
	ancB := f.ancestorBits(b)
	// Word-wise AND; the deepest set bit wins, ties broken by lowest ID
	// (ascending scan with strict comparison).
	lca = NoVertex
	best := int32(-1)
	for wi := range ancA {
		w := ancA[wi] & ancB[wi]
		for w != 0 {
			i := VertexID(wi<<6 + bits.TrailingZeros64(w))
			if f.depths[i] > best {
				best = f.depths[i]
				lca = i
			}
			w &= w - 1
		}
	}
	if lca == NoVertex {
		return NoVertex, nil, nil
	}
	return lca, f.pathDown(lca, a, ancA), f.pathDown(lca, b, ancB)
}

// pathDown returns edge IDs of one path from src down to dst, restricted to
// vertices in the ancestor bitset anc of dst (which guarantees progress:
// every vertex in anc other than dst has at least one outgoing edge to
// another anc member on a path to dst).
func (f *LCAFinder) pathDown(src, dst VertexID, anc []uint64) []EdgeID {
	if src == dst {
		return nil
	}
	// BFS from src over edges whose destination is still an ancestor of dst
	// (or dst itself), recording parents, then unwind. Scratch arrays are
	// finder-local; only the result path allocates.
	fz := f.f
	q := f.bfsQueue[:0]
	q = append(q, src)
	f.seen[src] = true
	for head := 0; head < len(q); head++ {
		v := q[head]
		if v == dst {
			break
		}
		base := fz.outStart[v]
		for k, d := range fz.outDst[base:fz.outStart[v+1]] {
			if f.seen[d] || anc[d>>6]&(1<<(uint(d)&63)) == 0 {
				continue
			}
			f.seen[d] = true
			f.parentEdge[d] = fz.outEdge[base+int32(k)]
			q = append(q, d)
		}
	}
	found := f.seen[dst]
	var rev []EdgeID
	if found {
		for v := dst; v != src; {
			eid := f.parentEdge[v]
			rev = append(rev, eid)
			v = f.g.edges[eid].Src
		}
	}
	for _, v := range q {
		f.seen[v] = false
	}
	f.bfsQueue = q[:0]
	if !found {
		return nil
	}
	// Reverse to ancestor-to-descendant order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
