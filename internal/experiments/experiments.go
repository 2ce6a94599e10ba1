// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: Table 1 (collection overhead
// and space), Table 2 (PAG sizes), case study A (ZeusMP scalability,
// Figures 9-10 and the §5.3 speedups), case study B (LAMMPS causal
// analysis, Figures 11-12), case study C (Vite contention, Figures 13-16),
// the four-tool comparison of §5.3, and the implementation-effort (lines of
// code) comparison. The pflow-bench command and the repository's
// bench_test.go are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/graph"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

// Table1Row is one program's collection-cost measurements (paper Table 1).
type Table1Row struct {
	Program     string
	StaticMS    float64 // wall-clock milliseconds of static PAG extraction
	DynamicPct  float64 // virtual-time overhead of hybrid collection
	SpaceBytes  int64   // serialized PAG storage (both views)
	EventsTotal int
}

// Table1Programs is the evaluation set in the paper's column order.
func Table1Programs() []string {
	return []string{"bt", "cg", "ep", "ft", "mg", "sp", "lu", "is", "zeusmp", "lammps", "vite"}
}

// Table1 measures collection costs for every evaluated program at the
// given scale (the paper used 128 processes).
func Table1(ranks int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(Table1Programs()))
	for _, name := range Table1Programs() {
		p, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		threads := 1
		if name == "vite" {
			threads = 4
		}
		res, err := collector.Collect(p, collector.Options{Ranks: ranks, Threads: threads})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		_, pct, err := res.Overhead(context.Background())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, Table1Row{
			Program:     name,
			StaticMS:    float64(res.StaticTime.Microseconds()) / 1000,
			DynamicPct:  pct,
			SpaceBytes:  res.PAGBytes(),
			EventsTotal: res.Run.NumEvents(),
		})
	}
	return rows, nil
}

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: the overhead of PerFlow")
	fmt.Fprintf(w, "%-8s %12s %12s %12s %10s\n", "program", "static(ms)", "dynamic(%)", "space(B)", "events")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12.3f %12.2f %12d %10d\n",
			r.Program, r.StaticMS, r.DynamicPct, r.SpaceBytes, r.EventsTotal)
	}
}

// Table2Row is one program's structural measurements (paper Table 2).
type Table2Row struct {
	Program              string
	KLoC                 float64
	BinaryBytes          int64
	TopDownV, TopDownE   int
	ParallelV, ParallelE int
}

// Table2 builds both PAG views for every program and records their sizes.
func Table2(ranks int) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(Table1Programs()))
	for _, name := range Table1Programs() {
		p, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		threads := 1
		if name == "vite" {
			threads = 4
		}
		td := pag.BuildTopDown(p)
		run, err := mpisim.Run(p, mpisim.Config{NRanks: ranks, Threads: threads})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pv := pag.BuildParallel(run)
		row := Table2Row{Program: name, KLoC: p.KLoC, BinaryBytes: p.BinaryBytes}
		row.TopDownV, row.TopDownE = td.Size()
		row.ParallelV, row.ParallelE = pv.Size()
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: code size, binary size, and PAG features")
	fmt.Fprintf(w, "%-8s %8s %10s %10s %10s %12s %12s\n",
		"program", "KLoC", "binary(B)", "td |V|", "td |E|", "par |V|", "par |E|")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8.1f %10d %10d %10d %12d %12d\n",
			r.Program, r.KLoC, r.BinaryBytes, r.TopDownV, r.TopDownE, r.ParallelV, r.ParallelE)
	}
}

// CaseAResult carries the ZeusMP scalability experiment outcomes.
type CaseAResult struct {
	SmallRanks, LargeRanks int
	Speedup                float64 // T(small)/T(large), paper: 72.57x for 16->2048
	IdealSpeedup           float64
	SpeedupOptimized       float64 // after the OpenMP fix, paper: 77.71x
	ImprovementPct         float64 // paper: 6.91%
	Analysis               *core.ScalabilityResult
	RootCauseLocations     []string // debug locations on the backtracked paths
}

// CaseA runs the ZeusMP scalability study: measure the speedup, run the
// scalability-analysis paradigm at the two scales, and quantify the fix.
func CaseA(smallRanks, largeRanks int, w io.Writer) (*CaseAResult, error) {
	prog := workloads.ZeusMP(false)
	small, err := collector.Collect(prog, collector.Options{Ranks: smallRanks, SkipParallelView: true})
	if err != nil {
		return nil, err
	}
	large, err := collector.Collect(prog, collector.Options{Ranks: largeRanks})
	if err != nil {
		return nil, err
	}
	res := &CaseAResult{
		SmallRanks:   smallRanks,
		LargeRanks:   largeRanks,
		Speedup:      mpisim.Speedup(small.Run, large.Run),
		IdealSpeedup: float64(largeRanks) / float64(smallRanks),
	}
	res.Analysis, err = core.ScalabilityAnalysis(context.Background(), small.TopDown, large.TopDown, large.Parallel, 12, w)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for i := 0; i < res.Analysis.Backtracked.Len(); i++ {
		if dbg := res.Analysis.Backtracked.Vertex(i).Attr(pag.AttrDebug); dbg != "" && !seen[dbg] {
			seen[dbg] = true
			res.RootCauseLocations = append(res.RootCauseLocations, dbg)
		}
	}
	sort.Strings(res.RootCauseLocations)

	// Apply the paper's optimization and re-measure.
	opt := workloads.ZeusMP(true)
	optSmall, err := mpisim.Run(opt, mpisim.Config{NRanks: smallRanks})
	if err != nil {
		return nil, err
	}
	optLarge, err := mpisim.Run(opt, mpisim.Config{NRanks: largeRanks})
	if err != nil {
		return nil, err
	}
	res.SpeedupOptimized = mpisim.Speedup(optSmall, optLarge)
	res.ImprovementPct = 100 * (large.Run.TotalTime() - optLarge.TotalTime()) / large.Run.TotalTime()
	return res, nil
}

// WriteCaseA renders the case-study-A summary.
func WriteCaseA(w io.Writer, r *CaseAResult) {
	fmt.Fprintf(w, "Case study A (ZeusMP, %d -> %d ranks)\n", r.SmallRanks, r.LargeRanks)
	fmt.Fprintf(w, "  speedup            %8.2fx (ideal %.0fx; paper: 72.57x of 128x)\n", r.Speedup, r.IdealSpeedup)
	fmt.Fprintf(w, "  speedup after fix  %8.2fx (paper: 77.71x)\n", r.SpeedupOptimized)
	fmt.Fprintf(w, "  improvement at %d ranks: %.2f%% (paper: 6.91%%)\n", r.LargeRanks, r.ImprovementPct)
	fmt.Fprintf(w, "  root-cause path locations: %s\n", strings.Join(r.RootCauseLocations, " "))
}

// CaseBResult carries the LAMMPS experiment outcomes.
type CaseBResult struct {
	Ranks              int
	CommFractionPct    float64 // paper: 28.91%
	SendPct, WaitPct   float64 // paper: 7.70% / 7.42%
	StepsPerSecOrig    float64 // paper: 118.89
	StepsPerSecBal     float64 // paper: 134.54
	ImprovementPct     float64 // paper: 13.77%
	CausePathLocations []string
}

// CaseB runs the LAMMPS communication-imbalance study: profile, detect the
// imbalanced MPI_Send/MPI_Wait hotspots, run the causal-analysis loop of
// Figure 11, and quantify the balance fix.
func CaseB(ranks int, w io.Writer) (*CaseBResult, error) {
	prog := workloads.LAMMPS(false)
	res, err := collector.Collect(prog, collector.Options{Ranks: ranks})
	if err != nil {
		return nil, err
	}
	cleanTime, _, err := res.Overhead(context.Background())
	if err != nil {
		return nil, err
	}
	out := &CaseBResult{Ranks: ranks}
	stats := res.Run.ComputeStats()
	out.CommFractionPct = 100 * stats.CommFraction

	var appTime, sendT, waitT float64
	all := core.AllVertices(res.TopDown)
	for i := 0; i < all.Len(); i++ {
		v := all.Vertex(i)
		t := v.Metric(pag.MetricExclTime)
		appTime += t
		switch v.Name {
		case "MPI_Send":
			sendT += t
		case "MPI_Wait":
			waitT += t
		}
	}
	if appTime > 0 {
		out.SendPct = 100 * sendT / appTime
		out.WaitPct = 100 * waitT / appTime
	}

	// Figure 11: hotspot -> comm filter -> imbalance -> causal loop.
	hot := core.Hotspot(all, pag.MetricExclTime, 12)
	comm := hot.FilterName("MPI_*")
	imb := core.Imbalance(comm, pag.MetricTime, 1.2)
	victims := core.Project(imb, res.Parallel)
	causes := victims
	prevLen := -1
	seen := map[string]bool{}
	for iter := 0; iter < 8 && causes.Len() != prevLen; iter++ {
		prevLen = causes.Len()
		next := core.Causal(causes)
		for _, eid := range next.E {
			e := res.Parallel.G.Edge(eid)
			for _, vid := range []int{int(e.Src), int(e.Dst)} {
				dbg := res.Parallel.G.Vertex(graph.VertexID(vid)).Attr(pag.AttrDebug)
				if dbg != "" && !seen[dbg] {
					seen[dbg] = true
					out.CausePathLocations = append(out.CausePathLocations, dbg)
				}
			}
		}
		if next.Len() == 0 {
			break
		}
		causes = next
	}
	sort.Strings(out.CausePathLocations)
	if w != nil {
		rep := &core.Report{Title: "LAMMPS imbalanced communication", Attrs: []string{"name", "etime", "wait", "imbalance", "debug"}, MaxRows: 12}
		if err := rep.WriteSet(w, imb); err != nil {
			return nil, err
		}
	}

	// The balance fix.
	bal, err := mpisim.Run(workloads.LAMMPS(true), mpisim.Config{NRanks: ranks})
	if err != nil {
		return nil, err
	}
	out.StepsPerSecOrig = workloads.TimestepsPerSecond(cleanTime)
	out.StepsPerSecBal = workloads.TimestepsPerSecond(bal.TotalTime())
	out.ImprovementPct = 100 * (out.StepsPerSecBal - out.StepsPerSecOrig) / out.StepsPerSecOrig
	return out, nil
}

// WriteCaseB renders the case-study-B summary.
func WriteCaseB(w io.Writer, r *CaseBResult) {
	fmt.Fprintf(w, "Case study B (LAMMPS, %d ranks)\n", r.Ranks)
	fmt.Fprintf(w, "  communication share  %6.2f%% (paper: 28.91%%)\n", r.CommFractionPct)
	fmt.Fprintf(w, "  MPI_Send time share  %6.2f%% (paper: 7.70%%)\n", r.SendPct)
	fmt.Fprintf(w, "  MPI_Wait time share  %6.2f%% (paper: 7.42%%)\n", r.WaitPct)
	fmt.Fprintf(w, "  throughput  %8.2f -> %8.2f steps/s (+%.2f%%; paper: 118.89 -> 134.54, +13.77%%)\n",
		r.StepsPerSecOrig, r.StepsPerSecBal, r.ImprovementPct)
	fmt.Fprintf(w, "  causal path locations: %s\n", strings.Join(r.CausePathLocations, " "))
}
