package core

import (
	"fmt"
	"math"
	"slices"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// This file implements the built-in performance analysis pass library
// (paper §4.3.2 and §4.4): hotspot detection, differential analysis,
// imbalance analysis, breakdown analysis, causal analysis (lowest common
// ancestor), contention detection (subgraph matching), critical-path
// identification, backtracking, filtering and set operations.

// Metrics set by passes on their output vertices.
const (
	MetricImbalance = "imbalance" // max/mean of the per-rank time vector
	MetricScaleLoss = "scaleloss" // differential metric delta
)

// ---- A: hotspot detection (Listing 3) ----

// Hotspot returns the n vertices with the highest value of metric:
//
//	def hotspot(V, m, n): return V.sort_by(m).top(n)
//
// It runs the hotspot kernel over the set, the selection a planned
// PerFlowGraph runs, so there is one implementation of it.
func Hotspot(v *Set, metric string, n int) *Set {
	return scan(newHotspotKernel(v, metric, n), v)
}

// scan runs a pass's kernel over its input set: the standalone form of a
// fusable pass, so the pass and its fused form share one implementation.
func scan(k ScanKernel, in *Set) *Set {
	for i, v := range in.V {
		k.Visit(i, v)
	}
	out, _ := k.Finish()
	return out[0]
}

// HotspotPass wraps Hotspot as a dataflow pass.
func HotspotPass(metric string, n int) Pass {
	return Describe(PassFunc{
		PassName: "hotspot_detection",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Hotspot(in[0], metric, n)}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalScan,
		Reads:     []string{metric},
		Scan: func(in *Set) ScanKernel {
			return newHotspotKernel(in, metric, n)
		},
	})
}

// ---- B: performance differential analysis (Listing 4 / Figure 7) ----

// Differential compares the environments of two sets (two PAGs of the same
// program under different inputs or scales) with the graph-difference
// algorithm and returns the full vertex set of the difference PAG, each
// vertex carrying metric deltas plus MetricScaleLoss (the normalized
// per-vertex change of the given metric). Normalize divides deltas by the
// first run's values.
func Differential(v1, v2 *Set, metric string, normalize bool) *Set {
	g1, g2 := v1.PAG.G, v2.PAG.G
	var dg *graph.Graph
	if normalize {
		dg = graph.DiffNormalized(g1, g2)
	} else {
		dg = graph.Diff(g1, g2)
	}
	env := v1.PAG.Derive(dg, v2.PAG.NRanks)
	out := AllVertices(env)
	delta := dg.MetricColumn(metric)
	loss, has := dg.WritableVertexMetric(MetricScaleLoss)
	for _, vid := range out.V {
		loss[vid], has[vid] = delta.At(vid), true
	}
	return out
}

// DifferentialPass wraps Differential; it takes two input sets.
func DifferentialPass(metric string, normalize bool) Pass {
	return Describe(PassFunc{
		PassName: "differential_analysis",
		NumIn:    2,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Differential(in[0], in[1], metric, normalize)}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalNone,
		// Graph difference folds every metric of both environments into the
		// derived one; "*" keeps it ordered after any annotator.
		Reads:  []string{"*"},
		NewEnv: true,
	})
}

// ---- imbalance analysis ----

// Imbalance computes, for every vertex with a per-rank vector of metric,
// the ratio max/mean, stores it as MetricImbalance, and returns the
// vertices whose ratio exceeds threshold (sorted by ratio, descending).
// Vertices observed on fewer ranks than the environment's rank count are
// padded with zeros, so "runs on 3 of 128 ranks" counts as imbalance.
func Imbalance(v *Set, metric string, threshold float64) *Set {
	return scan(newImbalanceKernel(v, metric, threshold), v)
}

// ImbalancePass wraps Imbalance.
func ImbalancePass(metric string, threshold float64) Pass {
	return Describe(PassFunc{
		PassName: "imbalance_analysis",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Imbalance(in[0], metric, threshold)}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalScan,
		Reads:     []string{metric + "_vec"},
		Writes:    []string{MetricImbalance},
		Scan: func(in *Set) ScanKernel {
			return newImbalanceKernel(in, metric, threshold)
		},
	})
}

// ---- breakdown analysis ----

// Breakdown annotates each communication vertex of the set with the
// composition of its time — transfer versus waiting — and classifies the
// dominant cause: "message-size" when pure transfer dominates, or
// "preceding-imbalance" when waiting dominates (the communication is
// delayed by earlier work elsewhere). The paper's communication-analysis
// example (§2.2) uses this to decide whether imbalanced communication comes
// from different message sizes or from load imbalance before the calls.
func Breakdown(v *Set) *Set { return scan(newBreakdownKernel(v), v) }

// BreakdownPass wraps Breakdown.
func BreakdownPass() Pass {
	return Describe(PassFunc{
		PassName: "breakdown_analysis",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Breakdown(in[0])}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalScan,
		Reads:     []string{pag.MetricExclTime, pag.MetricWait},
		Writes:    []string{"transfer", "breakdown"},
		Scan: func(in *Set) ScanKernel {
			return newBreakdownKernel(in)
		},
	})
}

// ---- C: causal analysis (Listing 5) ----

// Causal runs the lowest-common-ancestor algorithm over every pair of
// vertices in the set (the detected performance bugs) and returns the
// ancestors that are themselves in the candidate search space, together
// with the edges of the connecting paths. On the parallel view the common
// ancestor of two delayed vertices is the vertex whose influence reaches
// both — the root cause candidate.
func Causal(v *Set) *Set {
	finder, origE, mu := materialsFor(v.PAG.G).lcaFinder()
	mu.Lock()
	defer mu.Unlock()
	out := NewSet(v.PAG)
	if !finder.Valid() {
		return out
	}
	seenV := map[graph.VertexID]bool{}
	seenE := map[graph.EdgeID]bool{}
	for i := 0; i < len(v.V); i++ {
		for j := i + 1; j < len(v.V); j++ {
			lca, pa, pb := finder.Query(v.V[i], v.V[j])
			if lca == graph.NoVertex {
				continue
			}
			if !seenV[lca] {
				seenV[lca] = true
				out.V = append(out.V, lca)
			}
			for _, path := range [][]graph.EdgeID{pa, pb} {
				for _, e := range path {
					if origE != nil {
						e = origE[e]
					}
					if !seenE[e] {
						seenE[e] = true
						out.E = append(out.E, e)
					}
				}
			}
		}
	}
	return out
}

// CausalPass wraps Causal.
func CausalPass() Pass {
	return Describe(PassFunc{
		PassName: "causal_analysis",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Causal(in[0])}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalLCA,
	})
}

// ---- D: contention detection (Listing 6) ----

// Contention searches the parallel view for embeddings of the resource-
// contention pattern around each vertex of the input set: query vertex 0,
// a contributor, is anchored on each input vertex in turn (at most 64
// embeddings each). An empty set searches globally (at most 256). The
// output contains the union of embedding vertices and edges.
func Contention(v *Set) *Set {
	pattern := pag.ContentionPattern()
	out := NewSet(v.PAG)
	var embs []graph.Embedding
	if len(v.V) == 0 {
		embs = graph.MatchSubgraph(v.PAG.G, pattern, graph.MatchOptions{MaxEmbeddings: 256})
	} else {
		for _, vid := range v.V {
			embs = append(embs, graph.MatchSubgraph(v.PAG.G, pattern, graph.MatchOptions{
				Anchor: vid, Anchored: true, MaxEmbeddings: 64,
			})...)
		}
	}
	out.V = graph.EmbeddingVertexSet(embs)
	out.E = graph.EmbeddingEdgeSet(embs)
	return out
}

// ContentionPass wraps Contention.
func ContentionPass() Pass {
	return Describe(PassFunc{
		PassName: "contention_detection",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Contention(in[0])}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalMatch,
	})
}

// ---- critical path ----

// CriticalPath extracts the maximum-weight path through the environment
// (vertex exclusive time plus edge wait), the critical-path paradigm's
// core. It returns the path vertices and edges in order.
func CriticalPath(v *Set) *Set {
	out := NewSet(v.PAG)
	g, origE := dagOf(v.PAG.G)
	vs, es, _ := g.Frozen().CriticalPath(g.VertexMetricColumn(pag.MetricExclTime), g.EdgeMetricColumn(pag.MetricWait))
	if origE != nil {
		for i, e := range es {
			es[i] = origE[e]
		}
	}
	out.V, out.E = vs, es
	return out
}

// dagOf returns g itself when acyclic, or its DAG skeleton plus the
// edge-ID translation back to g. Rare aggregation artifacts (alternating
// lock waits, shifting collective stragglers) can close cycles in the
// parallel view; the DAG algorithms run on the skeleton. The skeleton is
// served from the (graph, version) materialization cache, so back-to-back
// passes over one environment share a single copy.
func dagOf(g *graph.Graph) (*graph.Graph, []graph.EdgeID) {
	return materialsFor(g).dagSkeleton()
}

// CriticalPathPass wraps CriticalPath.
func CriticalPathPass() Pass {
	return Describe(PassFunc{
		PassName: "critical_path",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{CriticalPath(in[0])}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalTopo,
		Reads:     []string{pag.MetricExclTime, pag.MetricWait},
	})
}

// ---- backtracking (the user-defined pass of Listing 7, shipped for the
// scalability paradigm) ----

// Backtrack walks backwards from each input vertex through incoming edges —
// preferring inter-process (communication) edges for communication
// vertices and intra-procedural (control/data flow) edges otherwise —
// collecting the vertices and edges on the paths until reaching a vertex
// with no incoming edges or exceeding maxDepth.
func Backtrack(v *Set, maxDepth int) *Set {
	if maxDepth <= 0 {
		maxDepth = 64
	}
	// Runs of pure control flow longer than this are local work, not bug
	// propagation — the walk stops rather than unwinding a whole rank's
	// flow to its entry (the paper's backtracking similarly terminates at
	// collectives and dependence boundaries).
	const maxIntraRun = 8
	out := NewSet(v.PAG)
	g := v.PAG.G
	seen := map[graph.VertexID]bool{}
	seenE := map[graph.EdgeID]bool{}
	for _, start := range v.V {
		cur := start
		intraRun := 0
		for depth := 0; depth < maxDepth; depth++ {
			if !seen[cur] {
				seen[cur] = true
				out.V = append(out.V, cur)
			}
			eid := pickBackEdge(g, cur, seenE)
			if eid == graph.NoEdge {
				break
			}
			if g.Edge(eid).Label == pag.EdgeIntraProc {
				intraRun++
				if intraRun > maxIntraRun {
					break
				}
			} else {
				intraRun = 0
			}
			seenE[eid] = true
			out.E = append(out.E, eid)
			cur = g.Edge(eid).Src
		}
	}
	return out
}

// pickBackEdge selects the most significant unvisited incoming edge of v:
// inter-process and inter-thread edges first (largest wait), then
// intra-procedural flow.
func pickBackEdge(g *graph.Graph, v graph.VertexID, seenE map[graph.EdgeID]bool) graph.EdgeID {
	best := graph.NoEdge
	bestScore := math.Inf(-1)
	for _, eid := range g.InEdges(v) {
		if seenE[eid] {
			continue
		}
		e := g.Edge(eid)
		score := e.Metric(pag.MetricWait)
		switch e.Label {
		case pag.EdgeInterProcess, pag.EdgeInterThread:
			score += 1e6 // dependence edges dominate control flow
		}
		if score > bestScore {
			bestScore = score
			best = eid
		}
	}
	return best
}

// BacktrackPass wraps Backtrack.
func BacktrackPass(maxDepth int) Pass {
	return Describe(PassFunc{
		PassName: "backtracking_analysis",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Backtrack(in[0], maxDepth)}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalReverseBFS,
		Reads:     []string{pag.MetricWait},
	})
}

// ---- filter and set-operation passes ----

// FilterPass keeps vertices whose name matches the glob pattern.
func FilterPass(pattern string) Pass {
	return Describe(PassFunc{
		PassName: fmt.Sprintf("filter(%s)", pattern),
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{in[0].FilterName(pattern)}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalScan,
		Scan: func(in *Set) ScanKernel {
			return newFilterKernel(in, func(v *graph.Vertex) bool { return globMatch(pattern, v.Name) })
		},
	})
}

// UnionPass merges any number of input sets.
func UnionPass() Pass {
	return Describe(unionPassFunc(), PassInfo{Pure: true, Traversal: TraversalNone})
}

func unionPassFunc() Pass {
	return PassFunc{
		PassName: "union",
		NumIn:    -1,
		Fn: func(in []*Set) ([]*Set, error) {
			if len(in) == 0 {
				return nil, fmt.Errorf("union of zero sets")
			}
			acc := in[0]
			for _, s := range in[1:] {
				var err error
				acc, err = acc.Union(s)
				if err != nil {
					return nil, err
				}
			}
			return []*Set{acc}, nil
		},
	}
}

// IntersectPass intersects any number of input sets.
func IntersectPass() Pass {
	return Describe(intersectPassFunc(), PassInfo{Pure: true, Traversal: TraversalNone})
}

func intersectPassFunc() Pass {
	return PassFunc{
		PassName: "intersect",
		NumIn:    -1,
		Fn: func(in []*Set) ([]*Set, error) {
			if len(in) == 0 {
				return nil, fmt.Errorf("intersection of zero sets")
			}
			acc := in[0]
			for _, s := range in[1:] {
				var err error
				acc, err = acc.Intersect(s)
				if err != nil {
					return nil, err
				}
			}
			return []*Set{acc}, nil
		},
	}
}

// ProjectPass maps a set over one PAG onto another PAG of the same program
// by IR node identity — e.g. carrying differential-analysis results from
// the top-down view onto the parallel view for backtracking. Vertices with
// no counterpart (synthetic or never executed) are dropped. For parallel
// targets every rank's flow vertex of the node is included.
func ProjectPass(target *pag.PAG) Pass {
	return Describe(PassFunc{
		PassName: "project",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{Project(in[0], target)}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalNone,
		Env:       target,
	})
}

// Project implements ProjectPass (see there). A parallel target's flow
// vertices of a node come from its flow index, by rank then thread, those
// of ranks and threads beyond the target's scale left out.
func Project(s *Set, target *pag.PAG) *Set {
	out := NewSet(target)
	var seen []bool // per IR node: projected already
	for _, vid := range s.V {
		node := s.PAG.NodeOf(vid)
		if node < 0 {
			continue
		}
		if int(node) >= len(seen) {
			seen = slices.Grow(seen, int(node)+1-len(seen))[:int(node)+1]
		}
		if seen[node] {
			continue
		}
		seen[node] = true
		if target.View == pag.Parallel {
			for _, f := range target.Flows(node) {
				if f.Rank >= 0 && f.Rank < int32(target.NRanks) && f.Thread >= -1 && f.Thread < int32(target.NThreads) {
					out.V = append(out.V, f.V)
				}
			}
		} else if tv := target.VertexOf(node); tv != graph.NoVertex {
			out.V = append(out.V, tv)
		}
	}
	return out
}
