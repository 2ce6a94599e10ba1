package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"perflow"
	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/trace"
	wl "perflow/internal/workloads"
)

// pipeline-mix: a closed loop with one client calling
// (*PerFlow).ExecuteRequest, the path of every pflow/pflow gate call and of
// every serve cache miss. Requests come from a fixed deck of slots over the
// Table-1 programs and the example DSL programs; each pass over the deck is
// a seeded permutation, and the seed also draws each slot's policy
// attachment and top-N. The deck's composition is fixed so throughput and
// latency percentiles are comparable across seeds.

// pmSlot is one deck entry.
type pmSlot struct {
	prog     string // built-in workload, or "dsl:<name>" for a pinned DSL input
	ranks    int
	ranks2   int
	threads  int
	analysis string
	tops     []int // top-N variants the seed draws from (hotspot); nil = default
}

// pmDeck has an odd number of slots, so a pass's median latency is one
// slot's, not the midpoint of two.
var pmDeck = []pmSlot{
	// 8 ranks: every NPB kernel, the case-study applications, and the DSL examples.
	{prog: "bt", ranks: 8, analysis: "profile"},
	{prog: "cg", ranks: 8, analysis: "critical"},
	{prog: "ep", ranks: 8, analysis: "hotspot", tops: []int{5, 10}},
	{prog: "ft", ranks: 8, analysis: "comm"},
	{prog: "is", ranks: 8, analysis: "waitstates"},
	{prog: "lu", ranks: 8, analysis: "profile"},
	{prog: "mg", ranks: 8, analysis: "comm"},
	{prog: "sp", ranks: 8, analysis: "hotspot", tops: []int{5, 10}},
	{prog: "zeusmp", ranks: 8, analysis: "comm"},
	{prog: "lammps", ranks: 8, analysis: "critical"},
	{prog: "vite", ranks: 8, threads: 4, analysis: "contention"},
	{prog: "vite", ranks: 8, analysis: "waitstates"},
	{prog: "dsl:halo2d", ranks: 8, analysis: "comm"},
	{prog: "dsl:pipeline", ranks: 8, analysis: "waitstates"},
	{prog: "dsl:pipeline", ranks: 8, analysis: "critical"},
	{prog: "dsl:threads_contention", ranks: 8, analysis: "critical"},
	{prog: "dsl:gpu_overlap", ranks: 8, analysis: "profile"},
	// 64 ranks.
	{prog: "cg", ranks: 64, analysis: "comm"},
	{prog: "ep", ranks: 64, analysis: "profile"},
	{prog: "is", ranks: 64, analysis: "hotspot", tops: []int{5, 10}},
	{prog: "zeusmp", ranks: 64, analysis: "waitstates"},
	{prog: "lammps", ranks: 64, analysis: "profile"},
	{prog: "dsl:halo2d", ranks: 64, analysis: "critical"},
	{prog: "dsl:threads_contention", ranks: 64, analysis: "hotspot", tops: []int{5, 10}},
	{prog: "dsl:gpu_overlap", ranks: 64, analysis: "waitstates"},
	// 256 ranks.
	{prog: "cg", ranks: 256, analysis: "profile"},
	{prog: "ep", ranks: 256, analysis: "comm"},
	{prog: "zeusmp", ranks: 256, analysis: "profile"},
	{prog: "dsl:halo2d", ranks: 256, analysis: "hotspot", tops: []int{5, 10}},
	{prog: "dsl:gpu_overlap", ranks: 256, analysis: "critical"},
	// Two scales: scalability, and a differential run behind a plain analysis.
	{prog: "zeusmp", ranks: 8, ranks2: 64, analysis: "scalability"},
	{prog: "cg", ranks: 8, ranks2: 64, analysis: "scalability"},
	{prog: "lammps", ranks: 8, ranks2: 64, analysis: "scalability"},
	{prog: "dsl:halo2d", ranks: 128, ranks2: 256, analysis: "scalability"},
	{prog: "dsl:halo2d", ranks: 8, ranks2: 16, analysis: "comm"},
}

// policyVariants are the policy attachments a slot's request can carry:
// none, the single-run health policy, or, on a differential run at twice
// the ranks, the scaling gate (its speedup_at(2x) fact needs that shape).
func (s pmSlot) policyVariants() []string {
	if s.ranks2 == 2*s.ranks {
		return []string{"", "scale"}
	}
	return []string{"", "ci"}
}

func (s pmSlot) topVariants() []int {
	if len(s.tops) == 0 {
		return []int{0}
	}
	return s.tops
}

// labeledRequest is a request with its oracle identifier.
type labeledRequest struct {
	id  string
	req perflow.AnalysisRequest
}

func (s pmSlot) request(policy string, top int) labeledRequest {
	var r perflow.AnalysisRequest
	id := s.prog
	if name, ok := strings.CutPrefix(s.prog, "dsl:"); ok {
		r.DSL = input(name + ".pfl")
	} else {
		r.Workload = s.prog
	}
	r.Analysis, r.Ranks, r.Ranks2, r.Threads, r.Top = s.analysis, s.ranks, s.ranks2, s.threads, top
	id += fmt.Sprintf("/r%d", s.ranks)
	if s.ranks2 > 0 {
		id += fmt.Sprintf("-%d", s.ranks2)
	}
	if s.threads > 0 {
		id += fmt.Sprintf("/t%d", s.threads)
	}
	id += "/" + s.analysis
	if top > 0 {
		id += fmt.Sprintf("/top%d", top)
	}
	if policy != "" {
		r.Policies = []string{input(policy + ".policy")}
		id += "/policy-" + policy
	}
	return labeledRequest{id: "pipeline-mix/" + id, req: r}
}

// drawPass returns one pass over the deck: a seeded permutation with each
// slot's policy and top-N drawn from its variants.
func drawPass(rng *rand.Rand) []labeledRequest {
	out := make([]labeledRequest, 0, len(pmDeck))
	for _, i := range rng.Perm(len(pmDeck)) {
		s := pmDeck[i]
		pv, tv := s.policyVariants(), s.topVariants()
		out = append(out, s.request(pv[rng.Intn(len(pv))], tv[rng.Intn(len(tv))]))
	}
	return out
}

func pipelineUniverse() []caseSpec {
	var cases []caseSpec
	for _, s := range pmDeck {
		for _, p := range s.policyVariants() {
			for _, t := range s.topVariants() {
				lr := s.request(p, t)
				cases = append(cases, caseSpec{id: lr.id, exec: func(ctx context.Context) ([]byte, error) {
					return executeUntraced(ctx, lr.req)
				}})
			}
		}
	}
	return cases
}

// executeUntraced runs a request through ExecuteRequest on a fresh handle,
// as a CLI invocation or a served job does, and returns the oracle bytes.
func executeUntraced(ctx context.Context, req perflow.AnalysisRequest) ([]byte, error) {
	var buf bytes.Buffer
	out, err := perflow.New().ExecuteRequest(ctx, req, &buf)
	if err != nil {
		return nil, err
	}
	return outputBytes(buf.Bytes(), out.Violations), nil
}

// failures counts failed requests and prints the first few.
type failures struct {
	n      int
	prefix string
}

func (f *failures) add(err error) {
	f.n++
	if f.n <= 5 {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.prefix, err)
	}
}

func runPipelineMix(ctx context.Context, env *runEnv) (*outcome, error) {
	rng := rand.New(rand.NewSource(env.seed))
	// Set-up validates and keys every request of the universe, the
	// canonical-request work a front end does before executing, then warms
	// the pipeline with one request per single-run 8-rank slot.
	setup, err := measureSetup(3, nil, func() error {
		for _, s := range pmDeck {
			for _, p := range s.policyVariants() {
				for _, t := range s.topVariants() {
					r := s.request(p, t).req.WithDefaults()
					if err := r.Validate(); err != nil {
						return err
					}
					_ = r.CacheKey()
				}
			}
		}
		for _, s := range pmDeck {
			if s.ranks == 8 && s.ranks2 == 0 {
				lr := s.request("", 0)
				if _, err := executeUntraced(ctx, lr.req); err != nil {
					return fmt.Errorf("warm-up %s: %w", lr.id, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	oc := &outcome{metrics: map[string]float64{}}
	var log *spanLog
	if env.trace {
		log = newSpanLog()
	}
	fails := &failures{prefix: "pipeline-mix"}
	cl := closedLoop(env.seconds, func() []labeledRequest { return drawPass(rng) },
		func(lr labeledRequest) (time.Duration, error) {
			if log != nil {
				return 0, tracedPair(ctx, log, lr, env.oracle)
			}
			return timedUntraced(ctx, lr, env.oracle)
		}, fails)
	return cl.outcome(oc, setup, log, fails), nil
}

// timedUntraced executes one request and checks its output.
func timedUntraced(ctx context.Context, lr labeledRequest, orc *oracle) (time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	out, err := perflow.New().ExecuteRequest(ctx, lr.req, &buf)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", lr.id, err)
	}
	return d, orc.check(lr.id, outputBytes(buf.Bytes(), out.Violations))
}

// tracedPair executes a request on the untraced and the traced path, in an
// order alternating between requests so warm-cache effects cancel, checks
// both outputs, and requires them byte-equal.
func tracedPair(ctx context.Context, log *spanLog, lr labeledRequest, orc *oracle) error {
	req := log.requests
	var untraced, traced []byte
	var du, dt time.Duration
	var errU, errT error
	runU := func() {
		t0 := time.Now()
		untraced, errU = executeUntraced(ctx, lr.req)
		du = time.Since(t0)
	}
	runT := func() {
		t0 := time.Now()
		var buf bytes.Buffer
		tr := &pipelineTracer{log: log, req: req}
		out, err := tr.execute(ctx, lr.req, &buf)
		dt = time.Since(t0) - tr.replay
		if err == nil {
			traced = outputBytes(buf.Bytes(), out.Violations)
		}
		errT = err
	}
	if req%2 == 0 {
		runU()
		runT()
	} else {
		runT()
		runU()
	}
	log.request(dt, du)
	if errU != nil {
		return fmt.Errorf("%s: %w", lr.id, errU)
	}
	if errT != nil {
		return fmt.Errorf("%s (traced): %w", lr.id, errT)
	}
	if !bytes.Equal(untraced, traced) {
		return fmt.Errorf("%s: traced and untraced reports differ", lr.id)
	}
	return orc.check(lr.id, traced)
}

// Hybrid-mode instrumentation constants of the collector's instrumented
// run, mirrored so its stages can be replayed one by one. A replay that no
// longer reproduces the collected run counts as a failed request.
const (
	hybridEventOverhead = 0.05
	samplingPeriodUS    = 5000
	sampleCostUS        = 2
)

// pipelineTracer re-composes ExecuteRequest from the public calls of each
// layer, in ExecuteRequest's order, timing each call as a span. After each
// collection it replays the collector's stages on the same program and
// options, so the collector's time splits into simulation, PAG
// construction and freezing; replays are not part of the request's wall.
type pipelineTracer struct {
	log    *spanLog
	req    int
	replay time.Duration // time spent in replays, excluded from the wall
}

func (t *pipelineTracer) execute(ctx context.Context, req perflow.AnalysisRequest, w io.Writer) (*perflow.AnalysisOutcome, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	plan, err := perflow.ParseFaultPlan(req.Faults)
	if err != nil {
		return nil, err
	}
	pf := perflow.New()
	pf.NoPlan = req.NoPlan
	pol, err := perflow.ParsePolicyRules(req.Policies)
	if err != nil {
		return nil, err
	}
	copts := func(ranks int, withParallel bool) collector.Options {
		return collector.Options{Ranks: ranks, Threads: req.Threads, Mode: collector.ModeHybrid,
			SkipParallelView: !withParallel, Parallelism: req.Parallelism, Faults: plan}
	}
	// run mirrors RunWorkloadCtx/RunDSLCtx: resolve, lint gate, collect,
	// attach diagnostics.
	run := func(ranks int, withParallel bool) (*collector.Result, error) {
		p, err := t.load(req)
		if err != nil {
			return nil, err
		}
		diags, err := t.lintGate(p, req.SkipLint)
		if err != nil {
			return nil, err
		}
		res, err := t.collect(ctx, p, copts(ranks, withParallel))
		if err != nil {
			return nil, err
		}
		t.attach(diags, res)
		return res, nil
	}

	needsParallel := perflow.AnalysisNeedsParallelView(req.Analysis)
	out := &perflow.AnalysisOutcome{}
	switch {
	case perflow.AnalysisNeedsTwoScales(req.Analysis):
		// Mirrors RunAtScalesCtx: one program, one lint, two collections.
		p, err := t.load(req)
		if err != nil {
			return nil, err
		}
		diags, err := t.lintGate(p, req.SkipLint)
		if err != nil {
			return nil, err
		}
		if out.Result, err = t.collect(ctx, p, copts(req.Ranks, false)); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if out.Large, err = t.collect(ctx, p, copts(req.Ranks2, needsParallel)); err != nil {
			return nil, err
		}
		t.attach(diags, out.Result, out.Large)
	case req.Ranks2 > 0:
		if out.Result, err = run(req.Ranks, needsParallel); err != nil {
			return nil, err
		}
		if out.Large, err = run(req.Ranks2, false); err != nil {
			return nil, err
		}
	default:
		if out.Result, err = run(req.Ranks, needsParallel); err != nil {
			return nil, err
		}
	}

	var rep countingWriter
	rep.w = w
	analyze := t.log.timed("core.analyze", t.req, -1, func() {
		out.Set, err = pf.AnalyzeCtx(ctx, out.Result, out.Large, req.Analysis, req.Top, &rep)
	})
	if err != nil {
		return nil, err
	}
	recordAnalysis(t.log, t.req, analyze, req.Analysis, pf.LastTrace, rep.n)

	t.log.timed("sdf.predict", t.req, -1, func() {
		if pred, err := perflow.Predict(out.Result.Run.Program, req.Ranks); err == nil {
			out.Prediction = pred
		}
	})
	if out.Large != nil {
		t.log.timed("diff.compute", t.req, -1, func() { out.Diff = perflow.Diff(out.Result, out.Large) })
	}
	if len(pol.Rules) > 0 {
		t.log.timed("policy.eval", t.req, -1, func() {
			in := &perflow.GateInput{Result: out.Result, Diff: out.Diff}
			if out.Large != nil {
				in.Result = out.Large
			}
			if pf.LastTrace != nil {
				in.Failures = pf.LastTrace.Failures
			}
			out.Violations, err = perflow.EvaluatePolicy(pol, in)
		})
		if err != nil {
			return nil, err
		}
		out.GateFailed = perflow.PolicyFailed(out.Violations)
	}
	return out, nil
}

// load resolves the request's program: the workload model build, or the
// DSL parse, plus finalization.
func (t *pipelineTracer) load(req perflow.AnalysisRequest) (*ir.Program, error) {
	var p *ir.Program
	var err error
	t.log.timed("ir.parse", t.req, -1, func() {
		if req.Workload != "" {
			p, err = wl.Get(req.Workload)
		} else {
			p, err = ir.Parse(strings.NewReader(req.DSL))
		}
		if err == nil {
			err = p.Finalize()
		}
	})
	return p, err
}

// lintGate runs the size-robust lint the run path runs before simulating.
func (t *pipelineTracer) lintGate(p *ir.Program, skip bool) ([]lint.Diagnostic, error) {
	if skip {
		return nil, nil
	}
	var diags []lint.Diagnostic
	var err error
	i := t.log.timed("lint.run", t.req, -1, func() { diags, err = lint.Run(p, lint.Options{}) })
	t.log.val("lint.alloc_kb", t.req, float64(t.log.spans[i].alloc)/1024)
	if err != nil {
		return nil, err
	}
	if lint.HasErrors(diags) {
		return nil, &lint.Error{Diagnostics: diags}
	}
	return diags, nil
}

func (t *pipelineTracer) attach(diags []lint.Diagnostic, results ...*collector.Result) {
	if len(diags) == 0 {
		return
	}
	t.log.timed("pag.attach", t.req, -1, func() {
		for _, r := range results {
			r.TopDown.AttachDiagnostics(diags)
		}
	})
}

// collect times the real collection, then replays its stages as the
// collection span's children.
func (t *pipelineTracer) collect(ctx context.Context, p *ir.Program, opts collector.Options) (*collector.Result, error) {
	var res *collector.Result
	var err error
	parent := t.log.timed("collector.collect", t.req, -1, func() { res, err = collector.CollectCtx(ctx, p, opts) })
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	replayed, rerr := t.replayCollect(ctx, p, opts, parent)
	t.replay += time.Since(t0)
	if rerr != nil {
		return nil, fmt.Errorf("collector replay: %w", rerr)
	}
	if replayed.NumEvents() != res.Run.NumEvents() || replayed.TotalTime() != res.InstrumentedTime {
		// The collector changed how it collects; the replay no longer
		// splits it, and runOne counts the request as failed.
		t.log.diverged++
	}
	var children time.Duration
	for _, s := range t.log.spans[parent+1:] {
		if s.parent == parent {
			children += s.dur
		}
	}
	t.log.val("collector.unattributed_ms", t.req, ms(t.log.spans[parent].dur-children))
	return res, nil
}

// replayCollect runs the collector's stages for a clean (fault-free)
// hybrid collection one call at a time.
func (t *pipelineTracer) replayCollect(ctx context.Context, p *ir.Program, opts collector.Options, parent int) (*trace.Run, error) {
	l, r := t.log, t.req
	var td *pag.PAG
	l.timed("pag.topdown_build", r, parent, func() { td = pag.BuildTopDown(p) })
	base := mpisim.Config{NRanks: opts.Ranks, Threads: max(opts.Threads, 1)}
	instr := base
	instr.PerEventOverhead = hybridEventOverhead
	instr.SamplingPeriod = samplingPeriodUS
	instr.SampleCost = sampleCostUS
	var clean, run *trace.Run
	var err error
	simStart := len(l.spans)
	for _, cfg := range []struct {
		c   mpisim.Config
		out **trace.Run
	}{{base, &clean}, {instr, &run}} {
		l.timed("mpisim.run", r, parent, func() { *cfg.out, err = mpisim.RunCtx(ctx, p, cfg.c) })
		if err != nil {
			return nil, err
		}
	}
	var simMS, simAlloc float64
	for _, s := range l.spans[simStart:] {
		simMS += ms(s.dur)
		simAlloc += float64(s.alloc)
	}
	events := float64(clean.NumEvents() + run.NumEvents())
	l.val("mpisim.events", r, events)
	if simMS > 0 {
		l.val("mpisim.events_per_ms", r, events/simMS)
	}
	l.val("mpisim.alloc_kb", r, simAlloc/1024)

	pagStart := len(l.spans)
	bopts := pag.BuildOptions{Parallelism: opts.Parallelism}
	l.timed("pag.embed", r, parent, func() {
		td.EmbedRunParallel(run, pag.PMUModel{}, bopts)
		td.MarkDynamicCallees(run)
	})
	l.timed("pag.serialize", r, parent, func() { _ = td.SerializedSize() })
	l.timed("graph.freeze", r, parent, func() { td.G.Frozen() })
	if !opts.SkipParallelView {
		var par *pag.PAG
		l.timed("pag.parallel_build", r, parent, func() { par = pag.BuildParallelOpts(run, bopts) })
		nv, ne := par.Size()
		l.val("pag.parallel_vertices", r, float64(nv))
		l.val("pag.parallel_edges", r, float64(ne))
		l.timed("pag.serialize", r, parent, func() { _ = par.SerializedSize() })
		l.timed("graph.freeze", r, parent, func() { par.G.Frozen() })
	}
	var pagAlloc float64
	for _, s := range l.spans[pagStart:] {
		if layerOf(s.name) == "pag" {
			pagAlloc += float64(s.alloc)
		}
	}
	l.val("pag.alloc_kb", r, pagAlloc/1024)
	return run, nil
}

// recordAnalysis splits an analysis span with the engine's own
// ExecutionTrace (nil for analyses that do not run a PerFlowGraph): the
// engine's wall time as a child, and the time covered by pass spans as its
// child; the rest of the engine wall is scheduling overhead.
func recordAnalysis(l *spanLog, req, analyze int, analysis string, tr *core.ExecutionTrace, reportBytes int) {
	l.val("core."+analysis+"_ms", req, ms(l.spans[analyze].dur))
	l.val("core.report_bytes", req, float64(reportBytes))
	if tr == nil {
		return
	}
	covered := coveredTime(tr.Spans)
	engine := l.add("core.engine", req, analyze, tr.Wall, 0)
	l.add("core.pass", req, engine, covered, 0)
	l.val("core.engine_wall_ms", req, ms(tr.Wall))
	l.val("core.pass_self_ms", req, ms(tr.Busy()))
	l.val("core.sched_overhead_ms", req, ms(tr.Wall-covered))
	if tr.Plan != nil {
		l.val("core.stages", req, float64(len(tr.Plan.Stages)))
		l.val("core.fused_passes", req, float64(tr.Plan.FusedPasses))
	} else {
		l.val("core.stages", req, float64(len(tr.Spans)))
		l.val("core.fused_passes", req, 0)
	}
}

// coveredTime is the length of the union of the pass intervals.
func coveredTime(spans []core.PassSpan) time.Duration {
	var total, end time.Duration
	first := true
	for _, s := range spans { // sorted by start
		switch {
		case first || s.Start >= end:
			total += s.End - s.Start
			end = s.End
			first = false
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// countingWriter counts the report bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}
