// Package perflow is the public API of PerFlow-Go, a from-scratch Go
// reproduction of "PerFlow: A Domain Specific Framework for Automatic
// Performance Analysis of Parallel Applications" (PPoPP 2022).
//
// PerFlow abstracts a performance-analysis task as a dataflow graph
// (PerFlowGraph) whose vertices are analysis passes and whose edges carry
// sets of Program Abstraction Graph (PAG) vertices and edges. This package
// mirrors the paper's high-level API (Listing 1):
//
//	pf := perflow.New()
//	res, _ := pf.RunWorkload("zeusmp", perflow.RunOptions{Ranks: 64})
//	vComm := pf.Filter(res.TopDownSet(), "MPI_*")
//	vHot := pf.HotspotDetection(vComm, 10)
//	vImb := pf.ImbalanceAnalysis(vHot, 1.2)
//	vBd := pf.BreakdownAnalysis(vImb)
//	pf.Report(os.Stdout, []string{"name", "comm-info", "debug-info", "etime"}, vImb, vBd)
//
// Paradigms (pre-built PerFlowGraphs) cover common tasks: an MPI profiler,
// critical-path analysis, and the scalability-analysis paradigm of
// Listing 7. Low-level building blocks — the dataflow engine, the built-in
// pass library, set operations, and the PAG itself — are re-exported so
// user-defined passes compose with the built-ins exactly as in §4.3.
package perflow

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/trace"
	"perflow/internal/viz"
	"perflow/internal/workloads"
)

// Re-exported core types, so user code composes passes and sets without
// importing internal packages.
type (
	// Set is a subset of PAG vertices/edges flowing along PerFlowGraph edges.
	Set = core.Set
	// Pass is one analysis sub-task.
	Pass = core.Pass
	// PassFunc adapts a function to the Pass interface.
	PassFunc = core.PassFunc
	// PerFlowGraph is the dataflow graph of an analysis task.
	PerFlowGraph = core.PerFlowGraph
	// PNode is one vertex (pass instance) of a PerFlowGraph.
	PNode = core.PNode
	// Results is the typed outcome of a PerFlowGraph run: outputs are
	// addressable by node handle (ByNode/Output) or by pass name (ByName).
	Results = core.Results
	// ExecutionTrace is the per-pass instrumentation record of one run.
	ExecutionTrace = core.ExecutionTrace
	// PassSpan is one pass's entry in an ExecutionTrace.
	PassSpan = core.PassSpan
	// RunOption customizes one PerFlowGraph.RunCtx invocation.
	RunOption = core.RunOption
	// CtxPassFunc adapts a context-aware function to a cancellation-aware
	// pass.
	CtxPassFunc = core.CtxPassFunc
	// PAG is the Program Abstraction Graph.
	PAG = pag.PAG
	// Program is the program model analyzed by PerFlow (stands in for the
	// executable binary of the paper).
	Program = ir.Program
	// Run is a recorded simulated execution.
	Run = trace.Run
	// Result bundles the collection outputs for one execution.
	Result = collector.Result
	// Report renders sets as text tables.
	Report = core.Report
	// ScalabilityResult carries the scalability paradigm's findings.
	ScalabilityResult = core.ScalabilityResult
	// MPIProfileRow is one row of the MPI profiler paradigm.
	MPIProfileRow = core.MPIProfileRow
	// Diagnostic is one static-analysis finding from the lint engine.
	Diagnostic = lint.Diagnostic
	// LintError is the failure Run returns when a program has
	// error-severity lint findings; it carries every finding of the run.
	LintError = lint.Error
	// FaultPlan is a deterministic fault-injection plan: rank crashes,
	// message drops, and slow ranks applied to the simulated execution.
	FaultPlan = mpisim.FaultPlan
	// Coverage summarizes per-rank data quality for a degraded run.
	Coverage = collector.Coverage
	// PassFailure records one pass that failed while a degraded
	// PerFlowGraph run continued.
	PassFailure = core.PassFailure
)

// ParseFaultPlan parses the textual fault-plan spec the cmd/pflow -faults
// flag and the serve API accept, e.g.
// "seed=7;crash:rank=3,at=5000;drop:rank=1,prob=0.5;slow:rank=2,factor=4".
// An empty spec yields a nil plan (no faults).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return mpisim.ParseFaultPlan(spec) }

// Lint severity levels, re-exported for inspecting Diagnostics.
const (
	SevInfo    = lint.SevInfo
	SevWarning = lint.SevWarning
	SevError   = lint.SevError
)

// Lint statically analyzes a program with the registered analyzers and
// returns its findings (see internal/lint). ranks fixes the communicator
// size; 0 models several sizes and keeps only findings that hold at every
// one, the robust default Run uses.
func Lint(p *Program, ranks int) ([]Diagnostic, error) {
	return lint.Run(p, lint.Options{Ranks: ranks})
}

// WriteDiagnostics renders lint findings in the compiler-style text format.
func WriteDiagnostics(w io.Writer, diags []Diagnostic) error { return lint.Write(w, diags) }

// NewPerFlowGraph returns an empty dataflow graph for custom analysis tasks.
func NewPerFlowGraph() *PerFlowGraph { return core.NewPerFlowGraph() }

// WithMaxWorkers bounds the dataflow engine's worker pool for one run
// (default: GOMAXPROCS).
func WithMaxWorkers(n int) RunOption { return core.WithMaxWorkers(n) }

// WithContinueOnFailure switches a PerFlowGraph run to degraded mode: a
// failing (erroring, panicking, or timed-out) pass yields empty outputs and
// a recorded PassFailure instead of aborting the run.
func WithContinueOnFailure() RunOption { return core.WithContinueOnFailure() }

// WithPassTimeout bounds each pass of a PerFlowGraph run.
func WithPassTimeout(d time.Duration) RunOption { return core.WithPassTimeout(d) }

// WithPlanning toggles pass fusion for one PerFlowGraph run (default on).
// Every run is compiled into an execution plan before any pass runs; with
// fusion on, sibling scans fuse into one traversal, pure chains collapse
// into one stage and shared structure artifacts are hoisted.
// WithPlanning(false) turns fusion off in the same executor, one stage per
// pass (the pflow -noplan flag). Results are byte-identical either way.
func WithPlanning(on bool) RunOption { return core.WithPlanning(on) }

// WriteTrace renders an execution trace as an aligned text table; a nil
// trace writes a short notice instead.
func WriteTrace(w io.Writer, t *ExecutionTrace) error { return core.WriteTrace(w, t) }

// Metric names for use in Hotspot/Imbalance/Report attribute lists.
const (
	MetricTime      = pag.MetricTime
	MetricExclTime  = pag.MetricExclTime
	MetricWait      = pag.MetricWait
	MetricCount     = pag.MetricCount
	MetricBytes     = pag.MetricBytes
	MetricImbalance = core.MetricImbalance
	MetricScaleLoss = core.MetricScaleLoss
)

// RunOptions parameterizes PerFlow.Run.
type RunOptions struct {
	// Ranks is the MPI process count (default 4, like the paper's
	// `mpirun -np 4` example).
	Ranks int
	// Threads is the thread count inside parallel regions (default 1).
	Threads int
	// SkipParallelView builds only the top-down view.
	SkipParallelView bool
	// Tracing switches to full-event tracing collection (Scalasca-style),
	// used by the overhead/storage comparisons.
	Tracing bool
	// Parallelism bounds the worker pool for sharded PAG construction and
	// data embedding (cmd/pflow exposes it as -j); <= 0 uses all available
	// cores. The built PAGs are identical at every setting.
	Parallelism int
	// SkipLint disables the static diagnostics pass that runs before
	// simulation. By default Run fails fast with a *LintError when the
	// program has error-severity findings and attaches warning-severity
	// findings to the matching PAG vertices (attribute "lint").
	SkipLint bool
	// Faults injects deterministic failures (rank crashes, message drops,
	// slow ranks) into the simulated execution. The run degrades instead of
	// failing: both PAG views are built from the surviving ranks, affected
	// metrics carry the data_quality=partial attribute, and Result.Coverage
	// summarizes what was lost. cmd/pflow exposes it as -faults.
	Faults *FaultPlan
}

// PerFlow is the top-level handle, mirroring the paper's `pflow` object.
type PerFlow struct {
	// Out receives report output for convenience methods; defaults to
	// os.Stdout.
	Out io.Writer
	// LastTrace holds the dataflow engine's instrumentation for the most
	// recent paradigm run (nil before the first one). Render it with
	// WriteTrace — the cmd/pflow -trace flag does.
	LastTrace *ExecutionTrace
	// NoPlan turns pass fusion off for the handle's paradigm runs: the one
	// executor runs every pass as its own stage (the pflow -noplan flag).
	// Results are byte-identical either way.
	NoPlan bool
}

// runOpts translates the handle's settings into engine options for a
// paradigm run.
func (pf *PerFlow) runOpts() []RunOption {
	if pf.NoPlan {
		return []RunOption{core.WithPlanning(false)}
	}
	return nil
}

// New returns a PerFlow handle writing reports to os.Stdout.
func New() *PerFlow { return &PerFlow{Out: os.Stdout} }

// Run executes the program under the simulator, performs hybrid
// static-dynamic collection, and returns the PAG views — the equivalent of
// the paper's pflow.run(bin=..., cmd="mpirun -np N ...").
//
// Before burning simulation time, the static diagnostics engine lints the
// program (unless opts.SkipLint): error-severity findings abort the run
// with a *LintError, and warning-severity findings are attached to the
// matching top-down PAG vertices under the "lint" attribute so passes and
// reports surface them.
func (pf *PerFlow) Run(p *Program, opts RunOptions) (*Result, error) {
	return pf.RunCtx(context.Background(), p, opts)
}

// RunCtx is Run under a caller-supplied context, threaded end-to-end:
// cancellation and deadlines propagate through the lint phase, the one
// (instrumented) simulator run, and PAG construction, so a run in flight
// aborts promptly with ctx.Err(). Run, RunWorkload and RunDSL are thin wrappers over the
// Ctx variants.
func (pf *PerFlow) RunCtx(ctx context.Context, p *Program, opts RunOptions) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("perflow: nil program")
	}
	if opts.Ranks <= 0 {
		opts.Ranks = 4
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	var diags []Diagnostic
	if !opts.SkipLint {
		var err error
		// Size-robust mode: only findings that hold at every modeled
		// communicator size are reported, so programs shaped for a specific
		// size do not fail at others.
		diags, err = lint.Run(p, lint.Options{})
		if err != nil {
			return nil, err
		}
		if lint.HasErrors(diags) {
			return nil, &lint.Error{Diagnostics: diags}
		}
	}
	res, err := collector.CollectCtx(ctx, p, collectorOptions(opts))
	if err != nil {
		return nil, err
	}
	if len(diags) > 0 {
		res.TopDown.AttachDiagnostics(diags)
	}
	return res, nil
}

// collectorOptions maps the public RunOptions onto the collector's options.
func collectorOptions(opts RunOptions) collector.Options {
	mode := collector.ModeHybrid
	if opts.Tracing {
		mode = collector.ModeTracing
	}
	return collector.Options{
		Ranks:            opts.Ranks,
		Threads:          opts.Threads,
		Mode:             mode,
		SkipParallelView: opts.SkipParallelView,
		Parallelism:      opts.Parallelism,
		Faults:           opts.Faults,
	}
}

// RunAtScalesCtx collects the program at two scales through the collector's
// cancellation-aware two-scale pipeline (the input shape of scalability
// analysis), sharing the lint gate with RunCtx. The program is linted once
// and each collection runs the simulator once; cancellation between and
// during the two collections aborts promptly with ctx.Err().
func (pf *PerFlow) RunAtScalesCtx(ctx context.Context, p *Program, small, large RunOptions) (*Result, *Result, error) {
	if p == nil {
		return nil, nil, fmt.Errorf("perflow: nil program")
	}
	if small.Ranks <= 0 {
		small.Ranks = 4
	}
	if large.Ranks <= 0 {
		large.Ranks = 64
	}
	if err := p.Finalize(); err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	if !small.SkipLint {
		var err error
		diags, err = lint.Run(p, lint.Options{})
		if err != nil {
			return nil, nil, err
		}
		if lint.HasErrors(diags) {
			return nil, nil, &lint.Error{Diagnostics: diags}
		}
	}
	rs, rl, err := collector.CollectAtScalesCtx(ctx, p, collectorOptions(small), collectorOptions(large))
	if err != nil {
		return nil, nil, err
	}
	if len(diags) > 0 {
		rs.TopDown.AttachDiagnostics(diags)
		rl.TopDown.AttachDiagnostics(diags)
	}
	return rs, rl, nil
}

// RunWorkload runs one of the built-in workload models (the synthetic NPB
// kernels and the three case-study applications; see Workloads).
func (pf *PerFlow) RunWorkload(name string, opts RunOptions) (*Result, error) {
	return pf.RunWorkloadCtx(context.Background(), name, opts)
}

// RunWorkloadCtx is RunWorkload under a caller-supplied context.
func (pf *PerFlow) RunWorkloadCtx(ctx context.Context, name string, opts RunOptions) (*Result, error) {
	p, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	return pf.RunCtx(ctx, p, opts)
}

// RunDSL parses a program in the PerFlow DSL and runs it.
func (pf *PerFlow) RunDSL(r io.Reader, opts RunOptions) (*Result, error) {
	return pf.RunDSLCtx(context.Background(), r, opts)
}

// RunDSLCtx is RunDSL under a caller-supplied context.
func (pf *PerFlow) RunDSLCtx(ctx context.Context, r io.Reader, opts RunOptions) (*Result, error) {
	p, err := ir.Parse(r)
	if err != nil {
		return nil, err
	}
	return pf.RunCtx(ctx, p, opts)
}

// Workloads lists the built-in workload names.
func Workloads() []string { return workloads.Names() }

// LoadWorkload builds a workload model without running it.
func LoadWorkload(name string) (*Program, error) { return workloads.Get(name) }

// ParseProgram parses a program in the PerFlow DSL.
func ParseProgram(r io.Reader) (*Program, error) { return ir.Parse(r) }

// TopDownSet returns the full vertex set of a result's top-down view —
// the paper's pag.V.
func TopDownSet(res *Result) *Set { return core.AllVertices(res.TopDown) }

// ParallelSet returns the full vertex set of a result's parallel view.
func ParallelSet(res *Result) *Set {
	if res.Parallel == nil {
		return nil
	}
	return core.AllVertices(res.Parallel)
}

// ---- built-in passes as direct calls (the paper's high-level API) ----

// Filter keeps vertices whose name matches the glob pattern (e.g. "MPI_*").
func (pf *PerFlow) Filter(s *Set, pattern string) *Set { return s.FilterName(pattern) }

// HotspotDetection returns the n most expensive vertices by exclusive time.
func (pf *PerFlow) HotspotDetection(s *Set, n int) *Set {
	return core.Hotspot(s, pag.MetricExclTime, n)
}

// HotspotBy returns the n top vertices by an arbitrary metric.
func (pf *PerFlow) HotspotBy(s *Set, metric string, n int) *Set {
	return core.Hotspot(s, metric, n)
}

// ImbalanceAnalysis returns the vertices whose per-rank time is imbalanced
// beyond threshold (max/mean).
func (pf *PerFlow) ImbalanceAnalysis(s *Set, threshold float64) *Set {
	return core.Imbalance(s, pag.MetricTime, threshold)
}

// BreakdownAnalysis decomposes communication time into transfer vs wait and
// classifies the dominant cause.
func (pf *PerFlow) BreakdownAnalysis(s *Set) *Set { return core.Breakdown(s) }

// DifferentialAnalysis diffs the environments of two sets (two runs of the
// same program) and returns all vertices of the difference PAG with
// MetricScaleLoss set.
func (pf *PerFlow) DifferentialAnalysis(s1, s2 *Set) *Set {
	return core.Differential(s1, s2, pag.MetricTime, true)
}

// CausalAnalysis finds lowest common ancestors of the input vertices (root
// cause candidates) plus the connecting paths.
func (pf *PerFlow) CausalAnalysis(s *Set) *Set { return core.Causal(s) }

// ContentionDetection searches the parallel view for resource-contention
// pattern embeddings around the input vertices.
func (pf *PerFlow) ContentionDetection(s *Set) *Set { return core.Contention(s) }

// CriticalPath extracts the heaviest dependence chain of the environment.
func (pf *PerFlow) CriticalPath(s *Set) *Set { return core.CriticalPath(s) }

// BacktrackingAnalysis walks backwards from the input vertices along
// dependence and control-flow edges, collecting propagation paths.
func (pf *PerFlow) BacktrackingAnalysis(s *Set) *Set { return core.Backtrack(s, 0) }

// Union merges sets over the same environment.
func (pf *PerFlow) Union(a, b *Set) (*Set, error) { return a.Union(b) }

// Project maps a set onto another PAG of the same program by node identity.
func (pf *PerFlow) Project(s *Set, target *PAG) *Set { return core.Project(s, target) }

// ReportTo renders the sets as text tables to w.
func (pf *PerFlow) ReportTo(w io.Writer, attrs []string, sets ...*Set) error {
	rep := &core.Report{Attrs: attrs, MaxRows: 30}
	for _, s := range sets {
		if s == nil {
			continue
		}
		if err := rep.WriteSet(w, s); err != nil {
			return err
		}
	}
	return nil
}

// Report renders the sets to the handle's Out writer.
func (pf *PerFlow) Report(attrs []string, sets ...*Set) error {
	return pf.ReportTo(pf.Out, attrs, sets...)
}

// DOT renders a set's environment in Graphviz syntax with the set
// highlighted (the paper's visualized-graph reports).
func DOT(s *Set, name string) string { return core.DOT(s, name) }

// ---- paradigms ----

// MPIProfilerParadigm produces an mpiP-style statistical MPI profile.
func (pf *PerFlow) MPIProfilerParadigm(res *Result) []MPIProfileRow {
	return core.MPIProfiler(res.TopDown)
}

// WriteMPIProfile renders profiler rows as text.
func WriteMPIProfile(w io.Writer, rows []MPIProfileRow) { core.WriteMPIProfile(w, rows) }

// CriticalPathParadigm runs the critical-path PerFlowGraph on a result's
// parallel view and reports to w.
func (pf *PerFlow) CriticalPathParadigm(res *Result, w io.Writer) (*Set, error) {
	return pf.CriticalPathParadigmCtx(context.Background(), res, w)
}

// CriticalPathParadigmCtx is CriticalPathParadigm under a caller-supplied
// context: cancellation and deadlines propagate into the dataflow engine.
func (pf *PerFlow) CriticalPathParadigmCtx(ctx context.Context, res *Result, w io.Writer) (*Set, error) {
	if res.Parallel == nil {
		return nil, fmt.Errorf("perflow: critical path needs the parallel view")
	}
	cp, trace, err := core.CriticalPathParadigm(ctx, res.Parallel, w, pf.runOpts()...)
	pf.LastTrace = trace
	return cp, err
}

// ScalabilityAnalysisParadigm runs the paradigm of Listing 7 / Figure 8 on
// a small-scale and a large-scale collection of the same program.
func (pf *PerFlow) ScalabilityAnalysisParadigm(small, large *Result, w io.Writer) (*ScalabilityResult, error) {
	return pf.ScalabilityAnalysisParadigmCtx(context.Background(), small, large, w)
}

// ScalabilityAnalysisParadigmCtx is ScalabilityAnalysisParadigm under a
// caller-supplied context.
func (pf *PerFlow) ScalabilityAnalysisParadigmCtx(ctx context.Context, small, large *Result, w io.Writer) (*ScalabilityResult, error) {
	if large.Parallel == nil {
		return nil, fmt.Errorf("perflow: scalability analysis needs the large run's parallel view")
	}
	res, err := core.ScalabilityAnalysis(ctx, small.TopDown, large.TopDown, large.Parallel, 10, w, pf.runOpts()...)
	if res != nil {
		pf.LastTrace = res.Trace
	}
	return res, err
}

// CommunicationAnalysisParadigm runs the §2.2 task (Listing 1 / Figure 2).
func (pf *PerFlow) CommunicationAnalysisParadigm(res *Result, w io.Writer) (imbalanced, breakdown *Set, err error) {
	return pf.CommunicationAnalysisParadigmCtx(context.Background(), res, w)
}

// CommunicationAnalysisParadigmCtx is CommunicationAnalysisParadigm under a
// caller-supplied context.
func (pf *PerFlow) CommunicationAnalysisParadigmCtx(ctx context.Context, res *Result, w io.Writer) (imbalanced, breakdown *Set, err error) {
	imbalanced, breakdown, trace, err := core.CommunicationAnalysis(ctx, res.TopDown, 10, w, pf.runOpts()...)
	pf.LastTrace = trace
	return imbalanced, breakdown, err
}

// ---- pass constructors for PerFlowGraph wiring (low-level API) ----

// Passes groups the built-in pass constructors for dataflow wiring.
var Passes = struct {
	Hotspot      func(metric string, n int) Pass
	Differential func(metric string, normalize bool) Pass
	Imbalance    func(metric string, threshold float64) Pass
	Breakdown    func() Pass
	Causal       func() Pass
	Contention   func() Pass
	CriticalPath func() Pass
	Backtrack    func(maxDepth int) Pass
	Filter       func(pattern string) Pass
	Union        func() Pass
	Intersect    func() Pass
	Project      func(target *PAG) Pass
	Report       func(w io.Writer, title string, attrs []string, maxRows int) Pass
}{
	Hotspot:      core.HotspotPass,
	Differential: core.DifferentialPass,
	Imbalance:    core.ImbalancePass,
	Breakdown:    core.BreakdownPass,
	Causal:       core.CausalPass,
	Contention:   core.ContentionPass,
	CriticalPath: core.CriticalPathPass,
	Backtrack:    core.BacktrackPass,
	Filter:       core.FilterPass,
	Union:        core.UnionPass,
	Intersect:    core.IntersectPass,
	Project:      core.ProjectPass,
	Report:       core.ReportPass,
}

// WriteJSON renders a set as machine-readable JSON.
func WriteJSON(w io.Writer, title string, s *Set) error { return core.WriteJSON(w, title, s) }

// WriteTimeline renders the run as an ASCII Gantt chart: compute, thread
// regions, communication and waiting per rank over virtual time.
func WriteTimeline(w io.Writer, run *Run) {
	viz.Timeline(w, run, viz.TimelineOptions{})
}

// WaitStateAnalysis classifies waiting communication vertices
// (late-sender / late-receiver / wait-at-collective), the Scalasca-style
// automatic analysis expressed as a PerFlow pass.
func (pf *PerFlow) WaitStateAnalysis(s *Set) *Set { return core.WaitStates(s) }

// CommunityAnalysis groups the set into structural communities and returns
// the groups ordered by aggregate cost — a module-level hotspot view.
func (pf *PerFlow) CommunityAnalysis(s *Set) []core.CommunityGroup { return core.Community(s) }

// ScalingCurveAnalysis classifies vertices across two or more runs of the
// same program at different scales and returns the "grows" class sorted by
// growth factor — the multi-point generalization of differential analysis.
func (pf *PerFlow) ScalingCurveAnalysis(results []*Result) (*Set, error) {
	points := make([]core.ScalingPoint, len(results))
	for i, r := range results {
		points[i] = core.ScalingPoint{Ranks: r.Run.NRanks, Set: core.AllVertices(r.TopDown)}
	}
	return core.ScalingCurve(points)
}

// SavePAG persists a result's top-down PAG to a file, the paper's "store
// the PAG in a graph system" workflow: analyses can run offline, decoupled
// from collection.
func SavePAG(res *Result, path string) error {
	return res.TopDown.SaveFile(path)
}

// LoadPAGResult loads a previously saved top-down PAG into a Result usable
// with the PAG-only analyses (hotspot, filter, imbalance, breakdown,
// wait-state classification, reports). Run data is not persisted, so
// paradigms needing events or the parallel view must re-run the program.
func LoadPAGResult(path string) (*Result, error) {
	p, err := pag.LoadFile(path, nil)
	if err != nil {
		return nil, err
	}
	if p.View != pag.TopDown {
		return nil, fmt.Errorf("perflow: %s holds a %s view; offline analysis needs the top-down view", path, p.View)
	}
	return &Result{TopDown: p, Run: &trace.Run{NRanks: p.NRanks}}, nil
}
