package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"perflow/internal/collector"
	"perflow/internal/graph"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

// Ablation experiments for the design choices DESIGN.md calls out.

// HybridVsDynamicRow compares collection strategies on one program.
type HybridVsDynamicRow struct {
	Program    string
	HybridPct  float64
	DynamicPct float64
}

// AblationHybridVsDynamic quantifies §3.2's claim that static extraction
// cuts runtime overhead: hybrid collection vs discovering structure purely
// at runtime.
func AblationHybridVsDynamic(ranks int, programs []string) ([]HybridVsDynamicRow, error) {
	if len(programs) == 0 {
		programs = []string{"cg", "lu", "zeusmp"}
	}
	var rows []HybridVsDynamicRow
	for _, name := range programs {
		p, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		hy, err := collector.Collect(p, collector.Options{Ranks: ranks, Mode: collector.ModeHybrid, SkipParallelView: true})
		if err != nil {
			return nil, err
		}
		dy, err := collector.Collect(p, collector.Options{Ranks: ranks, Mode: collector.ModePureDynamic, SkipParallelView: true})
		if err != nil {
			return nil, err
		}
		_, hyPct, err := hy.Overhead(context.Background())
		if err != nil {
			return nil, err
		}
		_, dyPct, err := dy.Overhead(context.Background())
		if err != nil {
			return nil, err
		}
		rows = append(rows, HybridVsDynamicRow{Program: name, HybridPct: hyPct, DynamicPct: dyPct})
	}
	return rows, nil
}

// WriteHybridVsDynamic renders the ablation.
func WriteHybridVsDynamic(w io.Writer, rows []HybridVsDynamicRow) {
	fmt.Fprintln(w, "Ablation: hybrid static-dynamic vs pure dynamic collection (§3.2)")
	fmt.Fprintf(w, "%-8s %12s %14s\n", "program", "hybrid(%)", "pure-dyn(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12.2f %14.2f\n", r.Program, r.HybridPct, r.DynamicPct)
	}
}

// SamplingVsTracingRow compares storage and overhead of the two collection
// philosophies on one program.
type SamplingVsTracingRow struct {
	Program     string
	SamplingPct float64
	SamplingB   int64
	TracingPct  float64
	TracingB    int64
}

// AblationSamplingVsTracing reproduces the §5.3 storage/overhead axis on
// several programs.
func AblationSamplingVsTracing(ranks int, programs []string) ([]SamplingVsTracingRow, error) {
	if len(programs) == 0 {
		programs = []string{"cg", "zeusmp"}
	}
	var rows []SamplingVsTracingRow
	for _, name := range programs {
		p, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		sa, err := collector.Collect(p, collector.Options{Ranks: ranks, Mode: collector.ModeHybrid})
		if err != nil {
			return nil, err
		}
		_, saPct, err := sa.Overhead(context.Background())
		if err != nil {
			return nil, err
		}
		tr, err := collector.Collect(p, collector.Options{Ranks: ranks, Mode: collector.ModeTracing})
		if err != nil {
			return nil, err
		}
		_, trPct, err := tr.Overhead(context.Background())
		if err != nil {
			return nil, err
		}
		rows = append(rows, SamplingVsTracingRow{
			Program:     name,
			SamplingPct: saPct, SamplingB: sa.PAGBytes(),
			TracingPct: trPct, TracingB: tr.TraceBytes,
		})
	}
	return rows, nil
}

// WriteSamplingVsTracing renders the ablation.
func WriteSamplingVsTracing(w io.Writer, rows []SamplingVsTracingRow) {
	fmt.Fprintln(w, "Ablation: sampling-based PAG vs full tracing (§5.3 axis)")
	fmt.Fprintf(w, "%-8s %12s %12s %12s %14s\n", "program", "sample(%)", "PAG(B)", "trace(%)", "trace(B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12.2f %12d %12.2f %14d\n",
			r.Program, r.SamplingPct, r.SamplingB, r.TracingPct, r.TracingB)
	}
}

// MatchPruningResult times subgraph matching with and without label-based
// candidate pruning on a Vite parallel view.
type MatchPruningResult struct {
	Embeddings   int
	WithPruning  time.Duration
	WithoutPrune time.Duration
}

// AblationMatchPruning measures the pruning speedup of the VF2-style
// matcher on real contention data.
func AblationMatchPruning(ranks, threads int) (*MatchPruningResult, error) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: ranks, Threads: threads})
	if err != nil {
		return nil, err
	}
	pv := pag.BuildParallel(run)
	pattern := pag.ContentionPattern()

	t0 := time.Now()
	withP := graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 256})
	d1 := time.Since(t0)

	t0 = time.Now()
	withoutP := graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 256, DisableLabelPruning: true})
	d2 := time.Since(t0)

	if len(withP) != len(withoutP) {
		return nil, fmt.Errorf("pruning changed results: %d vs %d", len(withP), len(withoutP))
	}
	return &MatchPruningResult{Embeddings: len(withP), WithPruning: d1, WithoutPrune: d2}, nil
}

// ParallelViewScalingRow records parallel-view construction cost at one
// rank count.
type ParallelViewScalingRow struct {
	Ranks    int
	Vertices int
	Edges    int
	BuildMS  float64
}

// AblationParallelViewScaling measures how parallel-view size and build
// time grow with the communicator (Table 2's parallel-view columns are
// ~ranks x top-down).
func AblationParallelViewScaling(rankCounts []int) ([]ParallelViewScalingRow, error) {
	if len(rankCounts) == 0 {
		rankCounts = []int{8, 16, 32, 64}
	}
	p := workloads.ZeusMP(false)
	var rows []ParallelViewScalingRow
	for _, r := range rankCounts {
		run, err := mpisim.Run(p, mpisim.Config{NRanks: r})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		pv := pag.BuildParallel(run)
		build := time.Since(t0)
		nv, ne := pv.Size()
		rows = append(rows, ParallelViewScalingRow{Ranks: r, Vertices: nv, Edges: ne, BuildMS: float64(build.Microseconds()) / 1000})
	}
	return rows, nil
}

// WriteParallelViewScaling renders the scaling ablation.
func WriteParallelViewScaling(w io.Writer, rows []ParallelViewScalingRow) {
	fmt.Fprintln(w, "Ablation: parallel-view construction vs rank count")
	fmt.Fprintf(w, "%8s %10s %10s %10s\n", "ranks", "|V|", "|E|", "build(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %10d %10d %10.2f\n", r.Ranks, r.Vertices, r.Edges, r.BuildMS)
	}
}
