package perflow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"perflow/internal/mpisim"
	"perflow/internal/policy"
)

// AnalysisRequest is the canonical description of one analysis
// invocation — the single options surface consumed by the CLI
// (cmd/pflow), the serve dispatcher (internal/serve), and the gate/diff
// subcommands, so every front end resolves defaults, validates, caches,
// and executes identically. JSON tags make it the wire format of the
// serve API's job submissions.
type AnalysisRequest struct {
	// Workload names a built-in workload model; mutually exclusive with
	// DSL.
	Workload string `json:"workload,omitempty"`
	// DSL is an inline program in the PerFlow DSL.
	DSL string `json:"dsl,omitempty"`
	// Analysis selects the analysis to run (default "profile").
	Analysis string `json:"analysis,omitempty"`
	// Ranks is the MPI process count (default 8, like cmd/pflow).
	Ranks int `json:"ranks,omitempty"`
	// Ranks2, when set, collects a second run at this larger scale: it is
	// the large input of two-scale analyses (scalability) and the
	// candidate side of the differential report every request with two
	// runs produces (driving speedup/efficiency policy facts).
	Ranks2 int `json:"ranks2,omitempty"`
	// Threads is the thread count inside parallel regions (default 1).
	Threads int `json:"threads,omitempty"`
	// Top is the result count for hotspot-style analyses (default 10).
	Top int `json:"top,omitempty"`
	// Parallelism bounds the worker pool for sharded PAG construction
	// (the CLI's -j). It does not change results, so it is excluded from
	// the cache key.
	Parallelism int `json:"parallelism,omitempty"`
	// NoPlan turns pass fusion off for the request's analysis runs: the
	// one executor runs every pass as its own stage (the CLI's -noplan).
	// Fused and unfused runs produce byte-identical reports, so, like
	// Parallelism, it is excluded from the cache key.
	NoPlan bool `json:"no_plan,omitempty"`
	// Predict appends a "-- static prediction --" section to the report:
	// the symbolic dataflow engine's statically derived communication
	// matrix and cost model, cross-checked against the collected run with
	// divergences flagged. The prediction is a pure function of fields
	// already in the cache key (program, ranks, faults), so, like
	// Parallelism and NoPlan, Predict itself is excluded from the key;
	// the serve layer delivers the section through a dedicated result
	// field instead of the cached report text (see serve.JobResult).
	Predict bool `json:"predict,omitempty"`
	// SkipLint disables the static diagnostics gate before simulation.
	// It changes results (lint attachments), so it is part of the key.
	SkipLint bool `json:"skip_lint,omitempty"`
	// Faults is a deterministic fault-injection plan in the CLI's -faults
	// syntax, e.g. "seed=7;crash:rank=3,at=5000". Canonicalized into the
	// cache key.
	Faults string `json:"faults,omitempty"`
	// Policies are performance-policy rules (internal/policy syntax, one
	// or more rules per entry) evaluated after the analysis; violations
	// ride in the result, so the canonicalized policy is part of the key.
	Policies []string `json:"policies,omitempty"`
}

// WithDefaults fills the CLI-equivalent defaults.
func (r AnalysisRequest) WithDefaults() AnalysisRequest {
	if r.Analysis == "" {
		r.Analysis = "profile"
	}
	if r.Ranks <= 0 {
		r.Ranks = 8
	}
	if r.Threads <= 0 {
		r.Threads = 1
	}
	if r.Top <= 0 {
		r.Top = 10
	}
	return r
}

// Validate checks the request's shape: program spec exclusivity, a known
// analysis, scale ordering, and parseable fault and policy specs. Server
// capacity limits (rank caps) stay with the server.
func (r AnalysisRequest) Validate() error {
	switch {
	case r.Workload == "" && r.DSL == "":
		return fmt.Errorf("one of \"workload\" or \"dsl\" is required")
	case r.Workload != "" && r.DSL != "":
		return fmt.Errorf("\"workload\" and \"dsl\" are mutually exclusive")
	}
	if !KnownAnalysis(r.Analysis) {
		return fmt.Errorf("unknown analysis %q (have %v)", r.Analysis, Analyses())
	}
	if AnalysisNeedsTwoScales(r.Analysis) && r.Ranks2 <= r.Ranks {
		return fmt.Errorf("analysis %q needs ranks2 > ranks", r.Analysis)
	}
	if r.Ranks2 > 0 && r.Ranks2 <= r.Ranks {
		return fmt.Errorf("ranks2 must exceed ranks (got %d vs %d)", r.Ranks2, r.Ranks)
	}
	if _, err := ParseFaultPlan(r.Faults); err != nil {
		return fmt.Errorf("invalid faults spec: %v", err)
	}
	if _, err := ParsePolicyRules(r.Policies); err != nil {
		return fmt.Errorf("invalid policy: %v", err)
	}
	return nil
}

// CacheKey is the request's content address: a SHA-256 digest over the
// canonicalized program and every result-affecting option. Parallelism is
// deliberately excluded — sharded PAG construction is byte-identical at
// any worker count. Faults, policies and the DSL source are canonicalized
// first, so formatting-only variants share a key.
func (r AnalysisRequest) CacheKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "analysis=%s\nranks=%d\nranks2=%d\nthreads=%d\ntop=%d\n",
		r.Analysis, r.Ranks, r.Ranks2, r.Threads, r.Top)
	if r.SkipLint {
		io.WriteString(h, "skiplint=1\n")
	}
	if spec := canonicalFaults(r.Faults); spec != "" {
		fmt.Fprintf(h, "faults=%s\n", spec)
	}
	if p, err := policy.ParseRules(r.Policies); err == nil {
		if c := p.Canonical(); c != "" {
			fmt.Fprintf(h, "policies:\n%s\n", c)
		}
	} else {
		// Unparseable policies hash as written; Validate rejects them
		// before any job reaches a cache, so this is a defensive fallback.
		fmt.Fprintf(h, "policies-raw:%q\n", r.Policies)
	}
	if r.Workload != "" {
		fmt.Fprintf(h, "workload=%s\n", r.Workload)
	} else {
		io.WriteString(h, "dsl:\n")
		io.WriteString(h, CanonicalDSL(r.DSL))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalFaults normalizes a fault-plan spec so equivalent plans (clause
// reordering, float formatting, whitespace) hash to the same cache key.
// An unparseable spec hashes as written — Validate rejects it up front, so
// this is only a defensive fallback.
func canonicalFaults(spec string) string {
	plan, err := mpisim.ParseFaultPlan(spec)
	if err != nil {
		return spec
	}
	if plan == nil {
		return ""
	}
	return plan.String()
}

// CanonicalDSL normalizes a DSL source so formatting-only variants hash to
// the same key: whitespace is collapsed, blank lines dropped, and comments
// stripped — except `# lint:` directives, which are semantic (they
// suppress findings) and must stay part of the program's identity.
func CanonicalDSL(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "# lint:") && !strings.HasPrefix(line, "#lint:") {
			continue
		}
		b.WriteString(strings.Join(strings.Fields(line), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// runOptions maps the request onto per-collection options.
func (r AnalysisRequest) runOptions(ranks int, withParallel bool, plan *FaultPlan) RunOptions {
	return RunOptions{
		Ranks:            ranks,
		Threads:          r.Threads,
		SkipParallelView: !withParallel,
		Parallelism:      r.Parallelism,
		SkipLint:         r.SkipLint,
		Faults:           plan,
	}
}

// AnalysisOutcome is everything one executed request produced beyond the
// report text written to the sink.
type AnalysisOutcome struct {
	// Result and Large are the collected runs (Large only when Ranks2 was
	// set).
	Result, Large *Result
	// Set is the analysis's highlighted result set (nil for report-only
	// analyses).
	Set *Set
	// Diff compares Result (baseline) to Large (candidate); nil for
	// single-run requests.
	Diff *DiffReport
	// Violations are the request's policy violations, in rule order.
	Violations []PolicyViolation
	// GateFailed reports an error-severity violation — "analysis ok, gate
	// failed", the state cmd/pflow maps to its dedicated exit code.
	GateFailed bool
	// Prediction is the symbolic dataflow engine's static model of the
	// request's program at the primary scale. Always populated when the
	// engine can summarize the program exactly (nil for e.g. recursive
	// call graphs); the report section it renders is only inlined when
	// the request set Predict.
	Prediction *Prediction
}

// ExecuteRequest runs one canonical request end to end — collection (one
// or two scales), the named analysis (report written to w), an optional
// differential comparison, and policy evaluation — through the exact same
// code path for every front end: the CLI, `pflow gate`, and a served job
// produce byte-identical reports for equal requests.
func (pf *PerFlow) ExecuteRequest(ctx context.Context, req AnalysisRequest, w io.Writer) (*AnalysisOutcome, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	plan, err := ParseFaultPlan(req.Faults)
	if err != nil {
		return nil, err
	}
	pf.NoPlan = req.NoPlan
	pol, err := ParsePolicyRules(req.Policies)
	if err != nil {
		return nil, err
	}

	collect := func(ranks int, withParallel bool) (*Result, error) {
		opts := req.runOptions(ranks, withParallel, plan)
		if req.Workload != "" {
			return pf.RunWorkloadCtx(ctx, req.Workload, opts)
		}
		return pf.RunDSLCtx(ctx, strings.NewReader(req.DSL), opts)
	}

	needsParallel := AnalysisNeedsParallelView(req.Analysis)
	out := &AnalysisOutcome{}
	switch {
	case AnalysisNeedsTwoScales(req.Analysis):
		// Two-scale shape: small run top-down only, large run with the
		// parallel view — collected through the cancellation-aware
		// two-scale pipeline so a canceled request aborts between the
		// scales too.
		prog, err := pf.resolveProgram(req)
		if err != nil {
			return nil, err
		}
		small := req.runOptions(req.Ranks, false, plan)
		large := req.runOptions(req.Ranks2, needsParallel, plan)
		if out.Result, out.Large, err = pf.RunAtScalesCtx(ctx, prog, small, large); err != nil {
			return nil, err
		}
	case req.Ranks2 > 0:
		// A second scale without a two-scale analysis still drives the
		// differential report (and its policy facts); the analysis itself
		// runs on the primary result.
		if out.Result, err = collect(req.Ranks, needsParallel); err != nil {
			return nil, err
		}
		if out.Large, err = collect(req.Ranks2, false); err != nil {
			return nil, err
		}
	default:
		if out.Result, err = collect(req.Ranks, needsParallel); err != nil {
			return nil, err
		}
	}

	if out.Set, err = pf.AnalyzeCtx(ctx, out.Result, out.Large, req.Analysis, req.Top, w); err != nil {
		return nil, err
	}
	// The static prediction rides behind every analysis: derived from the
	// IR alone, cross-checked here against what the run actually did. A
	// program the symbolic engine cannot summarize exactly predicts
	// nothing rather than something wrong.
	if pred, perr := Predict(out.Result.Run.Program, req.Ranks); perr == nil {
		out.Prediction = pred
		if req.Predict {
			pred.WriteComparison(w, out.Result)
		}
	} else if req.Predict {
		fmt.Fprintf(w, "-- static prediction --\nunavailable: %v\n", perr)
	}
	if out.Large != nil {
		out.Diff = Diff(out.Result, out.Large)
	}

	if len(pol.Rules) > 0 {
		in := &GateInput{Result: out.Result, Diff: out.Diff}
		if out.Large != nil {
			in.Result = out.Large
		}
		if pf.LastTrace != nil {
			in.Failures = pf.LastTrace.Failures
		}
		if out.Violations, err = EvaluatePolicy(pol, in); err != nil {
			return nil, err
		}
		out.GateFailed = PolicyFailed(out.Violations)
	}
	return out, nil
}

// resolveProgram builds the request's program model without running it.
func (pf *PerFlow) resolveProgram(req AnalysisRequest) (*Program, error) {
	if req.Workload != "" {
		return LoadWorkload(req.Workload)
	}
	return ParseProgram(strings.NewReader(req.DSL))
}
