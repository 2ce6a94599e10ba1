package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"perflow/internal/collector"
	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

// projectOracle is Project by brute force: for each input vertex in order,
// every target vertex of its IR node with rank in [0, NRanks) and thread
// in [-1, NThreads), by rank then thread, each target vertex once.
func projectOracle(s *Set, target *pag.PAG) []graph.VertexID {
	type key struct {
		rank, thread int32
		node         ir.NodeID
	}
	flow := map[key]graph.VertexID{}
	for i := 0; i < target.G.NumVertices(); i++ {
		v := target.G.Vertex(graph.VertexID(i))
		r, hasR := v.LookupMetric(pag.MetricRank)
		th, hasT := v.LookupMetric(pag.MetricThread)
		if n := target.NodeOf(graph.VertexID(i)); hasR && hasT && n != ir.NoNode {
			flow[key{int32(r), int32(th), n}] = graph.VertexID(i)
		}
	}
	var out []graph.VertexID
	seen := map[graph.VertexID]bool{}
	for _, vid := range s.V {
		node := s.PAG.NodeOf(vid)
		if node < 0 {
			continue
		}
		for r := int32(0); r < int32(target.NRanks); r++ {
			for th := int32(-1); th < int32(target.NThreads); th++ {
				if fv, ok := flow[key{r, th, node}]; ok && !seen[fv] {
					seen[fv] = true
					out = append(out, fv)
				}
			}
		}
	}
	return out
}

// TestProjectMatchesOracle pins Project's output, order included, from the
// top-down view onto the parallel view (also one narrowed to fewer ranks
// and threads) and back, for whole views and for random subsets with
// repeats.
func TestProjectMatchesOracle(t *testing.T) {
	type tc struct {
		name           string
		ranks, threads int
	}
	cases := []tc{{"cg", 8, 0}, {"cg", 64, 0}, {"zeusmp", 8, 0}, {"zeusmp", 64, 0}, {"lu", 8, 0}, {"vite", 4, 4}}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		prog, err := workloads.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := collector.Collect(prog, collector.Options{Ranks: c.ranks, Threads: c.threads})
		if err != nil {
			t.Fatal(err)
		}
		all := AllVertices(res.TopDown)
		sub := NewSet(res.TopDown)
		for i := 0; i < 2*all.Len(); i++ {
			sub.V = append(sub.V, all.V[rng.Intn(all.Len())])
		}
		// A target at a smaller scale than its flows keeps only the flows
		// of its ranks and threads.
		narrow := *res.Parallel
		narrow.NRanks, narrow.NThreads = c.ranks/2, c.threads/2
		for _, in := range []*Set{all, sub, AllVertices(res.Parallel)} {
			for _, target := range []*pag.PAG{res.Parallel, res.TopDown, &narrow} {
				got, want := Project(in, target).V, projectOracle(in, target)
				if target.View == pag.TopDown {
					want = nil
					seen := map[graph.VertexID]bool{}
					for _, vid := range in.V {
						if n := in.PAG.NodeOf(vid); n >= 0 {
							if tv := target.VertexOf(n); tv != graph.NoVertex && !seen[tv] {
								seen[tv] = true
								want = append(want, tv)
							}
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s r%d t%d: %v -> %v: Project gave %d vertices, oracle %d",
						c.name, c.ranks, c.threads, in.PAG.View, target.View, len(got), len(want))
				}
			}
		}
	}
}

// sortByOracle is SortBy(m).Top(n) spelled out: a stable sort by value,
// descending with NaN after every number, ties to the lower ID, absent
// values reading 0.
func sortByOracle(s *Set, m string, n int) []graph.VertexID {
	ids := slices.Clone(s.V)
	val := func(id graph.VertexID) float64 { return s.PAG.G.Vertex(id).Metric(m) }
	sort.SliceStable(ids, func(i, j int) bool {
		if c := cmp.Compare(val(ids[j]), val(ids[i])); c != 0 {
			return c < 0
		}
		return ids[i] < ids[j]
	})
	return ids[:min(n, len(ids))]
}

// TestHotspotMatchesSortByTop pins Hotspot to SortBy(m).Top(n) and to the
// spelled-out stable sort on random columns with ties, signed zeros, NaN,
// infinities, negatives and absent values, on an absent column, and for n
// around the set's length.
func TestHotspotMatchesSortByTop(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, -1, -2.5, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		size := 1 + rng.Intn(40)
		names := make([]string, size)
		for i := range names {
			names[i] = fmt.Sprint("v", i)
		}
		env := fakeEnv(names...)
		withNaN := trial%2 == 0
		for i := 0; i < size; i++ {
			if rng.Intn(5) == 0 {
				continue // absent: reads 0
			}
			x := pool[rng.Intn(len(pool))]
			for !withNaN && math.IsNaN(x) {
				x = pool[rng.Intn(len(pool))]
			}
			env.G.Vertex(graph.VertexID(i)).SetMetric("m", x)
		}
		in := NewSet(env)
		for i := 0; i < size+rng.Intn(size); i++ {
			in.V = append(in.V, graph.VertexID(rng.Intn(size)))
		}
		in.E = []graph.EdgeID{3, 1}
		for _, metric := range []string{"m", "absent"} {
			for _, n := range []int{0, 1, len(in.V) - 1, len(in.V), len(in.V) + 5} {
				got, want := Hotspot(in, metric, n), in.SortBy(metric).Top(n)
				if !slices.Equal(got.V, want.V) || !slices.Equal(got.E, want.E) || got.PAG != want.PAG {
					t.Fatalf("trial %d %s n=%d: Hotspot %v/%v, SortBy.Top %v/%v", trial, metric, n, got.V, got.E, want.V, want.E)
				}
				if o := sortByOracle(in, metric, n); !slices.Equal(got.V, o) {
					t.Fatalf("trial %d %s n=%d: Hotspot %v, stable sort %v", trial, metric, n, got.V, o)
				}
			}
		}
	}
}

// formatMetricFmt is appendMetric written with fmt, the form the report
// goldens were generated with.
func formatMetricFmt(m float64) string {
	switch {
	case m != 0 && (m < 0.01 && m > -0.01 || m >= 1e7 || m <= -1e7):
		return fmt.Sprintf("%.3g", m)
	case m == float64(int64(m)):
		return fmt.Sprintf("%d", int64(m))
	default:
		return fmt.Sprintf("%.2f", m)
	}
}

// TestFormatMetricMatchesFmt pins the report's number format at the
// boundaries of its three forms.
func TestFormatMetricMatchesFmt(t *testing.T) {
	for _, m := range []float64{
		0, math.Copysign(0, -1), 0.00999, -0.00999, 0.01, -0.01, 0.015, -0.015,
		1, -1, 12.5, 12.345, -12.345, 0.125, 2.675, 1e7, -1e7, 1e7 - 0.5, -(1e7 - 0.5),
		1e7 - 1, 1<<53 + 1, -(1<<53 + 1), 123456.78901, 1e-300, 5e-324, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		if got, want := string(appendMetric(nil, m)), formatMetricFmt(m); got != want {
			t.Errorf("appendMetric(%v) = %q, want %q", m, got, want)
		}
	}
}

// TestFusedHotspotTopZero runs hotspot with n = 0 fused into a scan with a
// sibling, planned and unplanned: both give an empty set and no error.
func TestFusedHotspotTopZero(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv", "compute")
	env.G.Vertex(1).SetMetric(pag.MetricExclTime, 5)
	for _, plan := range []bool{true, false} {
		g := NewPerFlowGraph()
		src := g.AddSource("pag", AllVertices(env))
		f := g.AddPass(FilterPass("MPI_*"))
		h := g.AddPass(HotspotPass(pag.MetricExclTime, 0))
		for _, n := range []*PNode{f, h} {
			if err := g.Connect(src, 0, n, 0); err != nil {
				t.Fatal(err)
			}
		}
		res, err := g.Run(WithPlanning(plan))
		if err != nil {
			t.Fatalf("planning %v: %v", plan, err)
		}
		if got := res.Output(h).Len(); got != 0 {
			t.Errorf("planning %v: hotspot top 0 kept %d vertices", plan, got)
		}
	}
}
