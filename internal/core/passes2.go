package core

import (
	"fmt"
	"math"
	"sort"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// Additional built-in passes beyond the four of §4.3.2: community grouping
// (the community-detection algorithm the paper lists in its graph-algorithm
// API), Scalasca-style wait-state classification expressed as a pass, and
// scaling-curve classification across three or more runs.

// Attribute keys set by the passes in this file.
const (
	// AttrCommunity is the community ID assigned by Community.
	AttrCommunity = "community"
	// AttrWaitState is the wait-state class assigned by WaitStates.
	AttrWaitState = "waitstate"
	// AttrScaling is the scaling-behavior class assigned by ScalingCurve.
	AttrScaling = "scaling"
)

// CommunityGroup is one detected community with its aggregate cost.
type CommunityGroup struct {
	ID       int
	Size     int
	Time     float64 // summed exclusive time
	Hottest  string  // most expensive member
	Exemplar graph.VertexID
}

// Community partitions the set's environment into structural communities
// (label propagation over the PAG) and annotates every set member with its
// community ID. It returns the groups ordered by aggregate exclusive time —
// a module-level hotspot view ("which part of the program is hot") rather
// than a vertex-level one.
func Community(v *Set) []CommunityGroup {
	comm := v.PAG.G.CommunityDetect(0)
	etime := v.PAG.G.MetricColumn(pag.MetricExclTime)
	agg := map[int]*CommunityGroup{}
	for _, vid := range v.V {
		vert := v.PAG.G.Vertex(vid)
		cid := comm[vid]
		vert.SetAttr(AttrCommunity, fmt.Sprintf("%d", cid))
		g := agg[cid]
		if g == nil {
			g = &CommunityGroup{ID: cid, Exemplar: vid}
			agg[cid] = g
		}
		g.Size++
		t := etime.At(vid)
		g.Time += t
		if g.Hottest == "" || t > etime.At(g.Exemplar) {
			g.Hottest = vert.Name
			g.Exemplar = vid
		}
	}
	out := make([]CommunityGroup, 0, len(agg))
	for _, g := range agg {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WaitStates classifies each communication vertex by its dominant wait
// pattern — "late-sender", "late-receiver", "wait-at-collective", or
// "no-wait" — the Scalasca-style automatic analysis expressed as a PerFlow
// pass over the PAG instead of over raw traces. The class is stored as an
// attribute and the classified subset (wait > 0) is returned sorted by
// wait time.
func WaitStates(v *Set) *Set { return scan(newWaitstateKernel(v), v) }

// IsCommVertex reports whether a vertex models a communication call — the
// subset WaitStates classifies and differential summaries count as MPI
// time.
func IsCommVertex(v *graph.Vertex) bool { return isComm(v.Attr(pag.AttrKind), v.Label) }

func isComm(kind string, label int) bool { return kind == "comm" || label == pag.VertexCommCall }

// WaitClassOf is the Scalasca-style wait-state class of a communication
// vertex: "no-wait", "wait-at-collective", "late-receiver" (blocked
// sender), or "late-sender" (blocked receiver/wait). Shared by the
// WaitStates pass and internal/diff's run summaries so both layers agree
// on the taxonomy.
func WaitClassOf(v *graph.Vertex) string { return waitClass(v.Name, v.Metric(pag.MetricWait)) }

func waitClass(name string, wait float64) string {
	switch {
	case wait <= 0:
		return "no-wait"
	case isCollectiveName(name):
		return "wait-at-collective"
	case name == "MPI_Send" || name == "MPI_Isend":
		return "late-receiver"
	default:
		return "late-sender"
	}
}

func isCollectiveName(name string) bool {
	switch name {
	case "MPI_Barrier", "MPI_Allreduce", "MPI_Bcast", "MPI_Reduce", "MPI_Alltoall", "MPI_Allgather":
		return true
	}
	return false
}

// WaitStatePass wraps WaitStates.
func WaitStatePass() Pass {
	return Describe(PassFunc{
		PassName: "waitstate_classification",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{WaitStates(in[0])}, nil
		},
	}, PassInfo{
		Pure:      true,
		Traversal: TraversalScan,
		Reads:     []string{pag.MetricWait, pag.AttrKind},
		Writes:    []string{AttrWaitState},
		Scan: func(in *Set) ScanKernel {
			return newWaitstateKernel(in)
		},
	})
}

// ScalingClass describes how a vertex's cost evolves across scales.
type ScalingClass string

// Scaling classes assigned by ScalingCurve.
const (
	ScalingPerfect  ScalingClass = "scales"   // per-rank share shrinks ~1/P
	ScalingConstant ScalingClass = "constant" // absolute time flat
	ScalingGrowing  ScalingClass = "grows"    // absolute time grows with P
)

// ScalingPoint is one (scale, PAG) observation for ScalingCurve.
type ScalingPoint struct {
	Ranks int
	Set   *Set // full vertex set of that run's top-down view
}

// ScalingCurve classifies every vertex of the LAST point's environment by
// fitting its summed time across three or more scales: vertices whose
// total stays ~flat while ranks grow are ScalingPerfect (per-rank share
// shrinks), growing totals are ScalingGrowing, and so on. The class lands
// in AttrScaling on the last point's vertices, and the returned set holds
// the ScalingGrowing vertices sorted by growth factor (stored as
// MetricScaleLoss) — the generalization of two-point differential analysis
// to a scaling curve.
func ScalingCurve(points []ScalingPoint) (*Set, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("core: scaling curve needs at least 2 points, got %d", len(points))
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Ranks < points[j].Ranks })
	last := points[len(points)-1].Set
	first := points[0].Set
	out := NewSet(last.PAG)

	// Index earlier runs' vertices by identity key.
	type key struct{ name, dbg string }
	firstTime := map[key]float64{}
	dbg, incl := first.PAG.G.AttrColumn(pag.AttrDebug), first.PAG.G.MetricColumn(pag.MetricTime)
	for _, vid := range first.V {
		firstTime[key{first.PAG.G.Vertex(vid).Name, dbg.At(vid)}] += incl.At(vid)
	}
	ratioP := float64(points[len(points)-1].Ranks) / float64(points[0].Ranks)

	dbg, incl = last.PAG.G.AttrColumn(pag.AttrDebug), last.PAG.G.MetricColumn(pag.MetricTime)
	for _, vid := range last.V {
		vert := last.PAG.G.Vertex(vid)
		tLast := incl.At(vid)
		tFirst := firstTime[key{vert.Name, dbg.At(vid)}]
		if tFirst <= 0 && tLast <= 0 {
			continue
		}
		growth := math.Inf(1)
		if tFirst > 0 {
			growth = tLast / tFirst
		}
		var class ScalingClass
		switch {
		case growth <= 1.25:
			// Summed-over-ranks time flat while ranks grew ratioP times:
			// per-rank share shrank ~1/P.
			class = ScalingPerfect
		case growth < ratioP*0.75:
			class = ScalingConstant
		default:
			class = ScalingGrowing
		}
		vert.SetAttr(AttrScaling, string(class))
		if class == ScalingGrowing {
			vert.SetMetric(MetricScaleLoss, growth)
			out.V = append(out.V, vid)
		}
	}
	return out.SortBy(MetricScaleLoss), nil
}

// ScalingCurvePass wraps ScalingCurve over N input sets; rank counts are
// taken from each set's environment.
func ScalingCurvePass() Pass {
	return PassFunc{
		PassName: "scaling_curve",
		NumIn:    -1,
		Fn: func(in []*Set) ([]*Set, error) {
			points := make([]ScalingPoint, len(in))
			for i, s := range in {
				points[i] = ScalingPoint{Ranks: s.PAG.NRanks, Set: s}
			}
			res, err := ScalingCurve(points)
			if err != nil {
				return nil, err
			}
			return []*Set{res}, nil
		},
	}
}

// TopProcesses returns the ranks whose vertices in the set carry the most
// of the given metric — "which processes hurt" (the per-process axis of the
// paper's parallel-view figures). It returns (rank, total) pairs sorted
// descending.
func TopProcesses(v *Set, metric string, n int) []RankTotal {
	totals := map[int]float64{}
	g := v.PAG.G
	rank, m, vec := g.MetricColumn(pag.MetricRank), g.MetricColumn(metric), g.VecColumn(metric+"_vec")
	for _, vid := range v.V {
		if v.PAG.View == pag.Parallel {
			totals[int(rank.At(vid))] += m.At(vid)
			continue
		}
		for r, x := range vec.At(vid) {
			totals[r] += x
		}
	}
	out := make([]RankTotal, 0, len(totals))
	for r, t := range totals {
		out = append(out, RankTotal{Rank: r, Total: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Rank < out[j].Rank
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// RankTotal is one row of TopProcesses.
type RankTotal struct {
	Rank  int
	Total float64
}
