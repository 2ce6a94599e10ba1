package perflow_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benchmarks DESIGN.md calls out. Benchmarks
// run at laptop-feasible scales (the pflow-bench command uses the paper's
// scales); each measures the end-to-end cost of regenerating its artifact.
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/experiments"
	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

const benchRanks = 32

// BenchmarkTable1Collect measures hybrid static-dynamic collection — the
// pipeline behind every Table 1 row — per program.
func BenchmarkTable1Collect(b *testing.B) {
	for _, name := range []string{"cg", "ep", "lu", "zeusmp"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := collector.Collect(p, collector.Options{Ranks: benchRanks})
				if err != nil {
					b.Fatal(err)
				}
				if res.PAGBytes() <= 0 {
					b.Fatal("empty PAG")
				}
			}
		})
	}
}

// BenchmarkTable2PAGBuild measures PAG construction (both views) — the
// Table 2 pipeline — on the largest model. The "sequential" sub-benchmark
// pins the sharded builder to one worker; "parallel" uses every core. The
// built graphs are byte-identical either way (see the pag shard tests), so
// the pair isolates the worker pool's wall-clock effect.
func BenchmarkTable2PAGBuild(b *testing.B) {
	p := workloads.LAMMPS(false)
	run, err := mpisim.Run(p, mpisim.Config{NRanks: benchRanks})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"parallel", 0}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				td := pag.BuildTopDown(p)
				pv := pag.BuildParallelOpts(run, pag.BuildOptions{Parallelism: cfg.par})
				nv, _ := td.Size()
				mv, _ := pv.Size()
				if nv == 0 || mv == 0 {
					b.Fatal("empty view")
				}
			}
		})
	}
}

// BenchmarkCaseAScalability measures the full §5.3 experiment: two runs of
// ZeusMP plus the scalability-analysis paradigm (Figures 9 and 10).
func BenchmarkCaseAScalability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseA(8, benchRanks, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if res.Analysis.Backtracked.Len() == 0 {
			b.Fatal("no backtracked paths")
		}
	}
}

// BenchmarkCaseBCausal measures the §5.4 experiment: LAMMPS run, imbalance
// detection and the causal-analysis loop (Figures 11 and 12).
func BenchmarkCaseBCausal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseB(16, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CausePathLocations) == 0 {
			b.Fatal("no causal paths")
		}
	}
}

// BenchmarkCaseCVite measures the §5.5 experiment: the Figure 13 thread
// sweep plus contention detection (Figures 14-16).
func BenchmarkCaseCVite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseC(4, []int{2, 4, 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.ContentionEmbeddings == 0 {
			b.Fatal("no embeddings")
		}
	}
}

// BenchmarkBaselineComparison measures the §5.3 four-tool comparison.
func BenchmarkBaselineComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Compare(benchRanks, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("missing tools")
		}
	}
}

// BenchmarkMPISimulator isolates the discrete-event simulator (the
// substrate all experiments share).
func BenchmarkMPISimulator(b *testing.B) {
	for _, name := range []string{"cg", "zeusmp"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run, err := mpisim.Run(p, mpisim.Config{NRanks: benchRanks})
				if err != nil {
					b.Fatal(err)
				}
				if run.NumEvents() == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// BenchmarkLint measures the static diagnostics engine: default lint (sizes
// 4, 8 and 16 plus the witness sizes) over every built-in workload, one op
// per pass over all of them, and lint of mg pinned to 4 and to 256 ranks,
// whose ratio shows how lint cost grows with the rank count. Programs are
// built outside the timer.
func BenchmarkLint(b *testing.B) {
	var progs []*ir.Program
	for _, name := range workloads.Names() {
		p, err := workloads.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.Run("workloads", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				if _, err := lint.Run(p, lint.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	mg, err := workloads.Get("mg")
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{4, 256} {
		b.Run(fmt.Sprintf("mg/ranks=%d", ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lint.Run(mg, lint.Options{Ranks: ranks}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectServeMiss measures what a serve cache miss collects: the
// four example DSL programs at 4, 8 and 16 ranks (pipeline.pfl at 8 only,
// the one size it completes at), each on one goroutine (Parallelism 1) as
// the server's jobs run, with two collections in flight at once as under
// two server workers. One op is one pass over the ten collections.
func BenchmarkCollectServeMiss(b *testing.B) {
	type miss struct {
		p     *ir.Program
		ranks int
	}
	var misses []miss
	for _, name := range []string{"gpu_overlap", "halo2d", "pipeline", "threads_contention"} {
		src, err := os.ReadFile(filepath.Join("examples", "dsl", name+".pfl"))
		if err != nil {
			b.Fatal(err)
		}
		ranks := []int{4, 8, 16}
		if name == "pipeline" {
			ranks = []int{8}
		}
		for _, r := range ranks {
			// Each collection gets its own program, as each serve request
			// parses its own.
			p, err := ir.ParseString(string(src))
			if err != nil {
				b.Fatal(err)
			}
			misses = append(misses, miss{p, r})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				for _, m := range misses {
					_, err := collector.CollectCtx(context.Background(), m.p,
						collector.Options{Ranks: m.ranks, Parallelism: 1})
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPassHotspot isolates the hotspot pass on an embedded PAG.
func BenchmarkPassHotspot(b *testing.B) {
	res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: benchRanks, SkipParallelView: true})
	if err != nil {
		b.Fatal(err)
	}
	all := core.AllVertices(res.TopDown)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Hotspot(all, pag.MetricExclTime, 10).Len() == 0 {
			b.Fatal("no hotspots")
		}
	}
}

// BenchmarkPassCausalLCA isolates causal analysis (LCA) on a parallel view.
func BenchmarkPassCausalLCA(b *testing.B) {
	res, err := collector.Collect(workloads.LAMMPS(false), collector.Options{Ranks: 16})
	if err != nil {
		b.Fatal(err)
	}
	victims := core.AllVertices(res.Parallel).FilterName("MPI_Wait*").SortBy(pag.MetricWait).Top(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Causal(victims).Len() == 0 {
			b.Fatal("no causes")
		}
	}
}

// BenchmarkLCAQueries isolates the bitset LCA kernel: one finder, repeated
// victim-pair queries on a LAMMPS parallel view (the causal pass's access
// pattern — ancestor bitsets amortize across queries).
func BenchmarkLCAQueries(b *testing.B) {
	res, err := collector.Collect(workloads.LAMMPS(false), collector.Options{Ranks: 16})
	if err != nil {
		b.Fatal(err)
	}
	victims := core.AllVertices(res.Parallel).FilterName("MPI_Wait*").SortBy(pag.MetricWait).Top(8).V
	if len(victims) < 2 {
		b.Fatal("not enough victims")
	}
	g := res.Parallel.G
	f := graph.NewLCAFinder(g)
	if !f.Valid() {
		g, _ = graph.DAGCopy(g)
		f = graph.NewLCAFinder(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for x := 0; x < len(victims); x++ {
			for y := x + 1; y < len(victims); y++ {
				if lca, _, _ := f.Query(victims[x], victims[y]); lca != graph.NoVertex {
					hits++
				}
			}
		}
		if hits == 0 {
			b.Fatal("no common ancestors")
		}
	}
}

// BenchmarkFrozenTraversal compares BFS over a zeusmp parallel view on the
// mutable adjacency lists versus the frozen CSR snapshot (pooled scratch,
// no per-call allocation).
func BenchmarkFrozenTraversal(b *testing.B) {
	run, err := mpisim.Run(workloads.ZeusMP(false), mpisim.Config{NRanks: benchRanks})
	if err != nil {
		b.Fatal(err)
	}
	g := pag.BuildParallel(run).G
	f := g.Frozen()
	b.Run("graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			g.BFS(0, func(graph.VertexID) bool { n++; return true })
			if n == 0 {
				b.Fatal("empty BFS")
			}
		}
	})
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			f.BFS(0, func(graph.VertexID) bool { n++; return true })
			if n == 0 {
				b.Fatal("empty BFS")
			}
		}
	})
}

// BenchmarkPassContentionMatch isolates subgraph matching on a Vite
// parallel view (Figure 16's engine).
func BenchmarkPassContentionMatch(b *testing.B) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: 8, Threads: 8})
	if err != nil {
		b.Fatal(err)
	}
	pv := pag.BuildParallel(run)
	pattern := pag.ContentionPattern()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embs := graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 256})
		if len(embs) == 0 {
			b.Fatal("no embeddings")
		}
	}
}

// BenchmarkPassContention measures the contention-detection pass as a
// request runs it: core.Contention over every vertex of the Vite parallel
// view (8 ranks × 4 threads), one anchored match per vertex.
func BenchmarkPassContention(b *testing.B) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: 8, Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	all := core.AllVertices(pag.BuildParallel(run))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Contention(all).Len() == 0 {
			b.Fatal("no contention found")
		}
	}
}

// BenchmarkPassCriticalPath measures the critical-path pass as a request
// runs it: core.CriticalPath over every vertex of a 64-rank parallel view,
// which reads the exclusive-time and wait columns of the DAG skeleton.
func BenchmarkPassCriticalPath(b *testing.B) {
	for _, name := range []string{"cg", "zeusmp"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			res, err := collector.Collect(p, collector.Options{Ranks: 64})
			if err != nil {
				b.Fatal(err)
			}
			all := core.AllVertices(res.Parallel)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if core.CriticalPath(all).Len() == 0 {
					b.Fatal("empty critical path")
				}
			}
		})
	}
}

// BenchmarkPassProject measures backtracking's projection (paper §4.4,
// Listing 7): the zeusmp top-down view projected onto its 64-rank parallel
// view through the flow index.
func BenchmarkPassProject(b *testing.B) {
	res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: 64})
	if err != nil {
		b.Fatal(err)
	}
	all := core.AllVertices(res.TopDown)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Project(all, res.Parallel).Len() == 0 {
			b.Fatal("empty projection")
		}
	}
}

// BenchmarkReportWriteSet measures the report module: the critical-path
// paradigm's 30-row report of cg's 64-rank parallel view.
func BenchmarkReportWriteSet(b *testing.B) {
	p, err := workloads.Get("cg")
	if err != nil {
		b.Fatal(err)
	}
	res, err := collector.Collect(p, collector.Options{Ranks: 64})
	if err != nil {
		b.Fatal(err)
	}
	path := core.CriticalPath(core.AllVertices(res.Parallel))
	rep := &core.Report{Title: "critical path", Attrs: []string{"name", "rank", "etime", "wait", "debug"}, MaxRows: 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.WriteSet(io.Discard, path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphDiff measures the graph-difference algorithm behind
// differential analysis (paper §4.3.2 B): graph.DiffNormalized of the
// zeusmp top-down views at 8 and 64 ranks.
func BenchmarkGraphDiff(b *testing.B) {
	p, err := workloads.Get("zeusmp")
	if err != nil {
		b.Fatal(err)
	}
	var views [2]*graph.Graph
	for i, ranks := range []int{8, 64} {
		res, err := collector.Collect(p, collector.Options{Ranks: ranks})
		if err != nil {
			b.Fatal(err)
		}
		views[i] = res.TopDown.G
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.DiffNormalized(views[0], views[1]).NumVertices() == 0 {
			b.Fatal("empty difference")
		}
	}
}

// BenchmarkAblationHybridVsDynamic quantifies the §3.2 claim (static
// extraction cuts runtime overhead) as a benchmark.
func BenchmarkAblationHybridVsDynamic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHybridVsDynamic(16, []string{"cg"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].DynamicPct <= rows[0].HybridPct {
			b.Fatal("ablation direction violated")
		}
	}
}

// BenchmarkAblationSamplingVsTracing measures the two collection
// philosophies end to end.
func BenchmarkAblationSamplingVsTracing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSamplingVsTracing(16, []string{"cg"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].TracingB <= 0 {
			b.Fatal("no trace bytes")
		}
	}
}

// BenchmarkAblationMatchPruning compares the matcher with and without
// label-based candidate pruning.
func BenchmarkAblationMatchPruning(b *testing.B) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: 4, Threads: 8})
	if err != nil {
		b.Fatal(err)
	}
	pv := pag.BuildParallel(run)
	pattern := pag.ContentionPattern()
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 128})
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 128, DisableLabelPruning: true})
		}
	})
}

// BenchmarkParallelViewScaling measures parallel-view construction across
// rank counts (Table 2's growth law).
func BenchmarkParallelViewScaling(b *testing.B) {
	for _, ranks := range []int{8, 32, 64} {
		ranks := ranks
		b.Run(itoa(ranks), func(b *testing.B) {
			run, err := mpisim.Run(workloads.ZeusMP(false), mpisim.Config{NRanks: ranks})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pv := pag.BuildParallel(run)
				if nv, _ := pv.Size(); nv == 0 {
					b.Fatal("empty view")
				}
			}
		})
	}
}

// BenchmarkPAGSerialize measures the compact binary encoder (Table 1's
// space-cost path).
func BenchmarkPAGSerialize(b *testing.B) {
	res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: benchRanks})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.TopDown.SerializedSize() <= 0 {
			b.Fatal("empty serialization")
		}
	}
}

// BenchmarkFlowGraphParallel measures the concurrent PerFlowGraph scheduler
// on an 8-branch fan-out of sleep-calibrated passes feeding a union. The
// "sequential" sub-benchmark pins the worker pool to one worker (the old
// engine's behavior); "parallel" gives it one worker per branch. With 2 ms
// of simulated work per branch the parallel run should be >=2x faster.
func BenchmarkFlowGraphParallel(b *testing.B) {
	const branches = 8
	const work = 2 * time.Millisecond
	p, err := workloads.Get("cg")
	if err != nil {
		b.Fatal(err)
	}
	td := pag.BuildTopDown(p)
	all := core.AllVertices(td)
	build := func() *core.PerFlowGraph {
		g := core.NewPerFlowGraph()
		src := g.AddSource("src", all)
		u := g.AddPass(core.UnionPass())
		for i := 0; i < branches; i++ {
			branch := g.Chain(src, core.PassFunc{
				PassName: "sleep_" + itoa(i),
				NumIn:    1,
				Fn: func(in []*core.Set) ([]*core.Set, error) {
					time.Sleep(work)
					return in, nil
				},
			})
			if err := g.Connect(branch, 0, u, i); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", branches}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			g := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := g.Run(core.WithMaxWorkers(cfg.workers))
				if err != nil {
					b.Fatal(err)
				}
				if res.Trace().MaxParallelism() > cfg.workers {
					b.Fatal("worker bound violated")
				}
			}
		})
	}
}

// BenchmarkPlannedVsUnplanned measures the pass-plan compiler end to end:
// the same analysis graphs run with planning on (fusion, traversal
// selection, hoisted materializations) and off (one stage per pass in the
// same executor). Three shapes at ranks 8 and 64 on the zeusmp Table-1 model:
// "comm" is the §2.2 communication-analysis paradigm (chain fusion),
// "profiler" is an mpiP-style fan-out of six sibling scan passes over the
// filtered MPI set of the parallel view (scan fusion, clone elision, and
// top-k/decorate-sort traversal selection), and "scalability" is the
// Listing 7 two-scale paradigm (materialization hoisting on the parallel
// view). Reports are byte-identical either way (TestPlanEquivalence...);
// this benchmark prices the difference. BENCH_PR7.json snapshots the
// results.
func BenchmarkPlannedVsUnplanned(b *testing.B) {
	ctx := context.Background()
	for _, ranks := range []int{8, 64} {
		ranks := ranks
		res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: ranks})
		if err != nil {
			b.Fatal(err)
		}
		small, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: ranks / 2, SkipParallelView: true})
		if err != nil {
			b.Fatal(err)
		}
		modes := []struct {
			name string
			opts []core.RunOption
		}{
			{"planned", nil},
			{"unplanned", []core.RunOption{core.WithPlanning(false)}},
		}
		for _, m := range modes {
			m := m
			b.Run("comm_r"+itoa(ranks)+"_"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					imb, _, _, err := core.CommunicationAnalysis(ctx, res.TopDown, 10, nil, m.opts...)
					if err != nil {
						b.Fatal(err)
					}
					_ = imb
				}
			})
			b.Run("profiler_r"+itoa(ranks)+"_"+m.name, func(b *testing.B) {
				g := profilerFanoutGraph(res.Parallel)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.Run(m.opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("scalability_r"+itoa(ranks)+"_"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sr, err := core.ScalabilityAnalysis(ctx, small.TopDown, res.TopDown, res.Parallel, 10, nil, m.opts...)
					if err != nil {
						b.Fatal(err)
					}
					if sr.Backtracked == nil {
						b.Fatal("no backtracked set")
					}
				}
			})
		}
	}
}

// profilerFanoutGraph wires an mpiP-style profile: one MPI filter feeding
// six sibling per-vertex analyses. Annotation-writing passes are serialized
// with After edges per the engine's contract, writers before readers.
func profilerFanoutGraph(env *pag.PAG) *core.PerFlowGraph {
	g := core.NewPerFlowGraph()
	src := g.AddSource("pag", core.AllVertices(env))
	f := g.Chain(src, core.FilterPass("MPI_*"))
	hotE := g.AddPass(core.HotspotPass(pag.MetricExclTime, 10))
	hotT := g.AddPass(core.HotspotPass(pag.MetricTime, 10))
	imb := g.AddPass(core.ImbalancePass(pag.MetricTime, 1.2))
	bd := g.AddPass(core.BreakdownPass())
	ws := g.AddPass(core.WaitStatePass())
	hotW := g.AddPass(core.HotspotPass(pag.MetricWait, 10))
	for _, n := range []*core.PNode{hotE, hotT, imb, bd, ws, hotW} {
		if err := g.Connect(f, 0, n, 0); err != nil {
			panic(err)
		}
	}
	// Breakdown and WaitState write vertex metrics that the hotspot passes
	// read, so every writer is ordered before every reader.
	g.After(bd, imb)
	g.After(ws, bd)
	for _, hot := range []*core.PNode{hotE, hotT, hotW} {
		g.After(hot, ws)
	}
	return g
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkGPUJacobi measures the CUDA-extension pipeline: simulate both
// Jacobi variants and extract the critical path of the naive one.
func BenchmarkGPUJacobi(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		naive, err := mpisim.Run(workloads.JacobiGPU(false), mpisim.Config{NRanks: benchRanks})
		if err != nil {
			b.Fatal(err)
		}
		over, err := mpisim.Run(workloads.JacobiGPU(true), mpisim.Config{NRanks: benchRanks})
		if err != nil {
			b.Fatal(err)
		}
		if over.TotalTime() >= naive.TotalTime() {
			b.Fatal("overlap did not help")
		}
		pv := pag.BuildParallel(naive)
		cp := core.CriticalPath(core.AllVertices(pv))
		if cp.Len() == 0 {
			b.Fatal("no critical path")
		}
	}
}

// BenchmarkPAGPersistence measures PAG save/load round trips (the offline-
// analysis workflow).
func BenchmarkPAGPersistence(b *testing.B) {
	res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: benchRanks, SkipParallelView: true})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := dir + "/z.pag"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.TopDown.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		if _, err := pag.LoadFile(path, res.TopDown.Prog); err != nil {
			b.Fatal(err)
		}
	}
}
