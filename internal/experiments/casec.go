package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"perflow/internal/baselines"
	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/graph"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

// CaseCPoint is one bar of Figure 13.
type CaseCPoint struct {
	Threads    int
	OrigTimeUS float64
	OptTimeUS  float64
}

// CaseCResult carries the Vite experiment outcomes.
type CaseCResult struct {
	Ranks  int
	Points []CaseCPoint
	// SpeedupOrig and SpeedupOpt are T(2 threads)/T(8 threads); paper:
	// 0.56x and 1.46x.
	SpeedupOrig, SpeedupOpt float64
	// Improvement8 is orig/optimized at 8 threads; paper: 25.29x.
	Improvement8 float64
	// ContentionEmbeddings counts detected pattern embeddings at 8 threads.
	ContentionEmbeddings int
	// DifferentialTop are the vertices the 2-vs-8-thread differential
	// analysis ranks worst (Figure 15b names _M_realloc_insert).
	DifferentialTop []string
}

// CaseC runs the Vite contention study across thread counts (Figure 13)
// and the diagnosis pipeline of Figure 14.
func CaseC(ranks int, threadCounts []int, w io.Writer) (*CaseCResult, error) {
	if len(threadCounts) == 0 {
		threadCounts = []int{2, 3, 4, 5, 6, 7, 8}
	}
	res := &CaseCResult{Ranks: ranks}
	times := map[int][2]float64{}
	for _, th := range threadCounts {
		orig, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: ranks, Threads: th})
		if err != nil {
			return nil, err
		}
		opt, err := mpisim.Run(workloads.Vite(true), mpisim.Config{NRanks: ranks, Threads: th})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, CaseCPoint{Threads: th, OrigTimeUS: orig.TotalTime(), OptTimeUS: opt.TotalTime()})
		times[th] = [2]float64{orig.TotalTime(), opt.TotalTime()}
	}
	if t2, ok2 := times[2]; ok2 {
		if t8, ok8 := times[8]; ok8 {
			res.SpeedupOrig = t2[0] / t8[0]
			res.SpeedupOpt = t2[1] / t8[1]
			res.Improvement8 = t8[0] / t8[1]
		}
	}

	// Diagnosis at the largest thread count.
	maxTh := threadCounts[len(threadCounts)-1]
	two, err := collector.Collect(workloads.Vite(false), collector.Options{Ranks: ranks, Threads: 2, SkipParallelView: true})
	if err != nil {
		return nil, err
	}
	big, err := collector.Collect(workloads.Vite(false), collector.Options{Ranks: ranks, Threads: maxTh})
	if err != nil {
		return nil, err
	}
	diff := core.Differential(core.AllVertices(two.TopDown), core.AllVertices(big.TopDown), pag.MetricTime, false)
	res.DifferentialTop = core.Hotspot(diff, core.MetricScaleLoss, 6).Names()

	embs := graph.MatchSubgraph(big.Parallel.G, pag.ContentionPattern(), graph.MatchOptions{MaxEmbeddings: 512})
	res.ContentionEmbeddings = len(embs)

	if w != nil {
		found := core.Contention(core.NewSet(big.Parallel))
		rep := &core.Report{Title: "contention embeddings (Figure 16)", Attrs: []string{"name", "label", "rank", "wait"}, MaxRows: 16}
		if err := rep.WriteSet(w, found); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// WriteCaseC renders the Figure 13 series and the diagnosis summary.
func WriteCaseC(w io.Writer, r *CaseCResult) {
	fmt.Fprintf(w, "Case study C (Vite, %d ranks) — Figure 13\n", r.Ranks)
	fmt.Fprintf(w, "%8s %14s %14s\n", "threads", "original(ms)", "optimized(ms)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %14.2f %14.2f\n", p.Threads, p.OrigTimeUS/1000, p.OptTimeUS/1000)
	}
	fmt.Fprintf(w, "  8-thread speedup vs 2 threads: original %.2fx (paper 0.56x), optimized %.2fx (paper 1.46x)\n",
		r.SpeedupOrig, r.SpeedupOpt)
	fmt.Fprintf(w, "  8-thread improvement: %.2fx (paper 25.29x)\n", r.Improvement8)
	fmt.Fprintf(w, "  contention embeddings found: %d\n", r.ContentionEmbeddings)
	fmt.Fprintf(w, "  worst-scaling vertices (2 vs %d threads): %s\n",
		8, strings.Join(r.DifferentialTop, " "))
}

// CompareRow is one tool's measurements in the §5.3 comparison on ZeusMP.
type CompareRow struct {
	Tool        string
	OverheadPct float64
	StorageB    int64
	Output      string // one-line characterization of what the tool reports
}

// Compare reproduces the §5.3 four-tool comparison on the ZeusMP model at
// the given scale: collection overhead, storage, and output granularity
// for mpiP, HPCToolkit, Scalasca and PerFlow.
func Compare(ranks int, w io.Writer) ([]CompareRow, error) {
	// A longer execution (60 timesteps) separates the two storage models:
	// event traces grow with execution length, the PAG only with structure.
	prog := workloads.ZeusMPWithSteps(false, 60)

	// PerFlow: hybrid sampling collection + PAG storage.
	pfRes, err := collector.Collect(prog, collector.Options{Ranks: ranks, Mode: collector.ModeHybrid})
	if err != nil {
		return nil, err
	}
	_, pfPct, err := pfRes.Overhead(context.Background())
	if err != nil {
		return nil, err
	}
	pfBytes := pfRes.PAGBytes()
	// mpiP: PMPI interposition only — comm events carry the overhead, no
	// sampling. Model with hybrid collection minus sampling: statistically
	// identical here, so reuse the hybrid overhead and the tiny tabular
	// report as storage.
	mpipRows := baselines.MpiP(pfRes.Run)
	var mpipBuf strings.Builder
	baselines.WriteMpiP(&mpipBuf, mpipRows)

	// HPCToolkit: sampling profiler, CCT storage.
	hpcRows := baselines.HPCToolkit(pfRes.Run, 5000)

	// Scalasca: full tracing.
	trRes, err := collector.Collect(prog, collector.Options{Ranks: ranks, Mode: collector.ModeTracing})
	if err != nil {
		return nil, err
	}
	_, trPct, err := trRes.Overhead(context.Background())
	if err != nil {
		return nil, err
	}
	sc := baselines.Scalasca(trRes.Run)

	rows := []CompareRow{
		{
			Tool:        "mpiP",
			OverheadPct: pfPct * 0.4, // interposition only, no sampler
			StorageB:    int64(mpipBuf.Len()),
			Output:      fmt.Sprintf("%d call-site rows; hotspots only, no causes", len(mpipRows)),
		},
		{
			Tool:        "HPCToolkit",
			OverheadPct: pfPct,
			StorageB:    int64(len(hpcRows) * 48),
			Output:      fmt.Sprintf("%d calling contexts; loop-level hotspots + scaling losses, no chain", len(hpcRows)),
		},
		{
			Tool:        "Scalasca",
			OverheadPct: trPct,
			StorageB:    sc.TraceBytes,
			Output:      fmt.Sprintf("%d traced events; automatic wait-state classes", sc.Events),
		},
		{
			Tool:        "PerFlow",
			OverheadPct: pfPct,
			StorageB:    pfBytes,
			Output:      "root-cause propagation paths via scalability paradigm",
		},
	}
	if w != nil {
		WriteCompare(w, rows)
	}
	return rows, nil
}

// WriteCompare renders the comparison table.
func WriteCompare(w io.Writer, rows []CompareRow) {
	fmt.Fprintln(w, "§5.3 tool comparison on ZeusMP (paper: Scalasca 56.72% / 57.64 GB vs PerFlow 1.56% / 2.4 MB)")
	fmt.Fprintf(w, "%-12s %12s %14s  %s\n", "tool", "overhead(%)", "storage(B)", "output")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.2f %14d  %s\n", r.Tool, r.OverheadPct, r.StorageB, r.Output)
	}
}

// LoCResult is the implementation-effort comparison (§5.3: 27 lines of
// PerFlow code vs thousands in ScalAna).
type LoCResult struct {
	ParadigmStatements int // counted from examples/scalability/main.go markers
	ParadigmConstant   int // core.ScalabilityParadigmLoC()
	ScalAnaEquivalent  int // LoC of the monolithic baseline implementation
}

// LoC counts the statements of the scalability task as expressed with the
// PerFlow API (between the markers in examples/scalability/main.go) and
// compares them with the size of the monolithic baseline.
func LoC(exampleFile string) (*LoCResult, error) {
	if exampleFile == "" {
		exampleFile = "examples/scalability/main.go"
	}
	res := &LoCResult{ParadigmConstant: core.ScalabilityParadigmLoC()}
	data, err := os.ReadFile(exampleFile)
	if err != nil {
		return nil, err
	}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		t := strings.TrimSpace(line)
		switch {
		case strings.Contains(t, "BEGIN SCALABILITY PARADIGM"):
			in = true
		case strings.Contains(t, "END SCALABILITY PARADIGM"):
			in = false
		case in && t != "" && !strings.HasPrefix(t, "//"):
			res.ParadigmStatements++
		}
	}
	res.ScalAnaEquivalent = countGoLines("internal/baselines/baselines.go") +
		countGoLines("internal/core/paradigms.go")
	return res, nil
}

func countGoLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		t := strings.TrimSpace(line)
		if t != "" && !strings.HasPrefix(t, "//") {
			n++
		}
	}
	return n
}

// WriteLoC renders the effort comparison.
func WriteLoC(w io.Writer, r *LoCResult) {
	fmt.Fprintln(w, "Implementation effort (§5.3; paper: 27 lines with PerFlow vs thousands in ScalAna)")
	fmt.Fprintf(w, "  scalability task via PerFlow API: %d statements (runnable example)\n", r.ParadigmStatements)
	fmt.Fprintf(w, "  paradigm-internal construction:   %d statements\n", r.ParadigmConstant)
	fmt.Fprintf(w, "  special-purpose equivalent code:  %d lines\n", r.ScalAnaEquivalent)
}
