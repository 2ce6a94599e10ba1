// Package collector implements the paper's hybrid static–dynamic analysis
// (§3.2): the static phase extracts the PAG structure from the program
// ("binary"), marking what can only be resolved at runtime; the dynamic
// phase runs the program under lightweight instrumentation — a
// calling-context sampler plus communication/lock hooks — and embeds the
// collected data into the PAG. A collection runs the simulator once, under
// instrumentation, and times the static phase. The other two costs of
// Table 1 are computed only when asked for: Result.Overhead replays the
// program without instrumentation to get the dynamic runtime overhead, and
// Result.PAGBytes sizes the PAG storage. The package also supports a
// pure-dynamic mode and a full-tracing mode for the ablation and baseline
// comparisons.
package collector

import (
	"context"
	"errors"
	"time"

	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/trace"
)

// Mode selects the collection strategy.
type Mode int

// Collection modes.
const (
	// ModeHybrid is PerFlow's strategy: structure comes from static
	// analysis, so the runtime hooks only record samples and communication
	// records (cheap).
	ModeHybrid Mode = iota
	// ModePureDynamic discovers structure at runtime too: every event pays
	// for call-path unwinding and structure construction (the ablation of
	// §3.2's claim that static analysis cuts runtime overhead).
	ModePureDynamic
	// ModeTracing records every event with full detail, Scalasca-style
	// (the §5.3 comparison).
	ModeTracing
)

// Per-event instrumentation costs (virtual µs) per mode.
const (
	hybridEventOverhead  = 0.05
	dynamicEventOverhead = 0.60 // unwinding + structure discovery per event
	tracingEventOverhead = 2.50 // buffer format + timestamps + flush share

	// Sampling interrupt model: 200 Hz as in the paper's HPCToolkit
	// comparison setup, with a 2µs handler.
	samplingPeriodUS = 5000
	sampleCostUS     = 2
)

// Options parameterizes collection.
type Options struct {
	Ranks   int
	Threads int
	Mode    Mode

	// Network model overrides (zero = mpisim defaults).
	Latency        float64
	Bandwidth      float64
	EagerThreshold float64

	PMU pag.PMUModel

	// SkipParallelView suppresses parallel-view construction when only the
	// top-down view is needed (differential analysis of two scales).
	SkipParallelView bool

	// Parallelism bounds the worker pool used for sharded PAG construction
	// and data embedding; <= 0 uses all available cores. The built PAGs are
	// identical at every setting.
	Parallelism int

	// Faults injects deterministic failures into the simulator run (and the
	// reference run behind Result.Overhead); see mpisim.FaultPlan. A non-nil
	// plan implies AllowPartial.
	Faults *mpisim.FaultPlan

	// AllowPartial builds both PAG views from whatever ranks survived a
	// degraded run: incomplete-rank data is tagged with the data_quality
	// attribute, Result.Coverage summarizes what was lost, and a DQ001
	// warning rides the AttachDiagnostics path into reports. Without it a
	// hanging program still fails with mpisim's DeadlockError.
	AllowPartial bool
}

// Result bundles everything the analysis layers consume.
type Result struct {
	TopDown  *pag.PAG
	Parallel *pag.PAG
	Run      *trace.Run

	// StaticTime is the measured wall-clock cost of static PAG extraction
	// (Table 1 "Static").
	StaticTime time.Duration
	// InstrumentedTime is the virtual makespan of the instrumented run.
	InstrumentedTime float64
	// TraceBytes is the full-event-trace storage cost (ModeTracing only;
	// the §5.3 Scalasca storage comparison).
	TraceBytes int64

	// Coverage summarizes per-rank data quality for degraded runs (fault
	// injection or salvaged traces); nil for a clean run.
	Coverage *Coverage

	// prog and base are what Overhead needs to replay the collection
	// without instrumentation.
	prog *ir.Program
	base mpisim.Config
}

// Overhead runs the uninstrumented reference simulation under the
// collection's configuration (network overrides and fault plan included)
// and returns its virtual makespan and the instrumented run's relative
// overhead in percent (Table 1 "Dynamic"). Each call simulates anew;
// cancellation of ctx aborts it with ctx.Err(). A Result that was not
// collected (one rebuilt from a saved PAG) has no program to replay.
func (r *Result) Overhead(ctx context.Context) (clean, pct float64, err error) {
	if r.prog == nil {
		return 0, 0, errors.New("collector: overhead needs a collected result")
	}
	run, err := mpisim.RunCtx(ctx, r.prog, r.base)
	if err != nil {
		return 0, 0, err
	}
	clean = run.TotalTime()
	if clean > 0 {
		pct = 100 * (r.InstrumentedTime - clean) / clean
	}
	return clean, pct, nil
}

// PAGBytes is the serialized storage cost of the views as they stand now
// (Table 1 "Space"). Passes that annotate the PAG grow it, so call it right
// after collecting to measure what collection stored.
func (r *Result) PAGBytes() int64 {
	n := r.TopDown.SerializedSize()
	if r.Parallel != nil {
		n += r.Parallel.SerializedSize()
	}
	return n
}

// Collect runs the full pipeline on program p.
func Collect(p *ir.Program, opts Options) (*Result, error) {
	return CollectCtx(context.Background(), p, opts)
}

// CollectCtx is Collect under a caller-supplied context. It runs the
// simulator once, instrumented. Cancellation and deadlines propagate into
// that run and are checked between the pipeline phases, so a collection in
// flight aborts promptly with ctx.Err().
func CollectCtx(ctx context.Context, p *ir.Program, opts Options) (*Result, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	if opts.Threads <= 0 {
		opts.Threads = 1
	}

	res := &Result{prog: p}

	// ---- static phase ----
	t0 := time.Now()
	td := pag.BuildTopDown(p)
	res.StaticTime = time.Since(t0)
	res.TopDown = td

	res.base = mpisim.Config{
		NRanks: opts.Ranks, Threads: opts.Threads,
		Latency: opts.Latency, Bandwidth: opts.Bandwidth,
		EagerThreshold: opts.EagerThreshold,
		Faults:         opts.Faults,
		AllowPartial:   opts.AllowPartial || opts.Faults != nil,
	}

	// ---- instrumented run ----
	instr := res.base
	switch opts.Mode {
	case ModeHybrid:
		instr.PerEventOverhead = hybridEventOverhead
		instr.SamplingPeriod = samplingPeriodUS
		instr.SampleCost = sampleCostUS
	case ModePureDynamic:
		instr.PerEventOverhead = dynamicEventOverhead
		instr.SamplingPeriod = samplingPeriodUS
		instr.SampleCost = sampleCostUS
	case ModeTracing:
		instr.PerEventOverhead = tracingEventOverhead
	}
	run, err := mpisim.RunCtx(ctx, p, instr)
	if err != nil {
		return nil, err
	}
	res.Run = run
	res.InstrumentedTime = run.TotalTime()

	// ---- embedding ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	buildOpts := pag.BuildOptions{Parallelism: opts.Parallelism}
	td.EmbedRunParallel(run, opts.PMU, buildOpts)
	td.MarkDynamicCallees(run)
	res.Coverage = CoverageOf(run)
	if res.Coverage != nil {
		td.TagDataQuality(run)
		if d := coverageDiagnostic(p, res.Coverage); d != nil {
			td.AttachDiagnostics([]lint.Diagnostic{*d})
		}
	}
	// Pre-warm the frozen CSR snapshot: construction is complete, so the
	// analysis passes (name lookups, traversals, matching) hit the indexes
	// without paying the O(V+E) build inside a timed pass.
	td.G.Frozen()

	if !opts.SkipParallelView {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Parallel = pag.BuildParallelOpts(run, buildOpts)
		if res.Coverage != nil {
			res.Parallel.TagDataQuality(run)
		}
		res.Parallel.G.Frozen()
	}
	if opts.Mode == ModeTracing {
		res.TraceBytes = run.EncodedSize()
	}
	return res, nil
}

// coverageDiagnostic synthesizes the DQ001 warning that carries a degraded
// run's coverage summary through the AttachDiagnostics path, anchored at
// the entry function so it surfaces in any report that includes it.
func coverageDiagnostic(p *ir.Program, c *Coverage) *lint.Diagnostic {
	entry := p.Function(p.Entry)
	if entry == nil {
		return nil
	}
	return &lint.Diagnostic{
		Code:     "DQ001",
		Analyzer: "data-quality",
		Severity: lint.SevWarning,
		Fn:       p.Entry,
		Message:  "analysis from partial data: " + c.Summary(),
		Node:     entry.ID(),
	}
}

// CollectAtScales runs the pipeline at two process counts and returns both
// results — the input shape of differential and scalability analysis
// (paper Listing 7: a 4-process and a 64-process run).
func CollectAtScales(p *ir.Program, small, large Options) (*Result, *Result, error) {
	return CollectAtScalesCtx(context.Background(), p, small, large)
}

// CollectAtScalesCtx is CollectAtScales under a caller-supplied context:
// cancellation between and during the two collections aborts promptly
// with ctx.Err(), matching CollectCtx.
func CollectAtScalesCtx(ctx context.Context, p *ir.Program, small, large Options) (*Result, *Result, error) {
	rs, err := CollectCtx(ctx, p, small)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rl, err := CollectCtx(ctx, p, large)
	if err != nil {
		return nil, nil, err
	}
	return rs, rl, nil
}
