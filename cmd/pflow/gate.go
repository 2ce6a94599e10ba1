package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"perflow"
)

// Process exit codes shared by the gate/diff subcommands. ExitGateFailed
// is deliberately distinct from ExitError: CI can tell "the analysis
// worked and the policy rejected it" from "the analysis itself broke".
const (
	ExitOK         = 0
	ExitError      = 1 // analysis/run/policy-evaluation error
	ExitUsage      = 2 // bad flags or arguments
	ExitGateFailed = 3 // analysis ok, gate failed (error-severity violation)
)

// gateOutput is the structured result `pflow gate -json` emits (and the
// shape serve embeds in job results).
type gateOutput struct {
	OK         bool                      `json:"ok"`
	Violations []perflow.PolicyViolation `json:"violations"`
	Diff       *perflow.DiffReport       `json:"diff,omitempty"`
}

// runGate implements the "pflow gate" subcommand: run an analysis and
// assert a policy file over its facts, CI-gate style.
func runGate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policyPath = fs.String("policy", "", "path to the policy file (required)")
		workload   = fs.String("workload", "", "built-in workload name")
		dslPath    = fs.String("dsl", "", "path to a program in the PerFlow DSL")
		analysis   = fs.String("analysis", "profile", "analysis to run before gating")
		ranks      = fs.Int("ranks", 8, "MPI rank count")
		ranks2     = fs.Int("ranks2", 0, "second (larger) rank count; enables differential facts such as speedup_at(2x)")
		threads    = fs.Int("threads", 1, "threads per rank in parallel regions")
		topN       = fs.Int("top", 10, "result count for hotspot-style analyses")
		par        = fs.Int("j", 0, "worker count for sharded PAG construction (0 = all cores)")
		faults     = fs.String("faults", "", "deterministic fault-injection plan applied to the run(s)")
		skipLint   = fs.Bool("skip-lint", false, "skip the static diagnostics gate before simulation")
		noPlan     = fs.Bool("noplan", false, "turn pass fusion off; gate results are identical either way")
		jsonOut    = fs.Bool("json", false, "emit the gate result as JSON")
		report     = fs.Bool("report", false, "also print the analysis report before the gate result")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pflow gate -policy file [-workload name | -dsl file] [-ranks N] [-ranks2 N] [-faults spec] [-json]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "exit codes: 0 gate passed, 1 analysis error, 2 usage, 3 gate failed")
	}
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}
	if *policyPath == "" || fs.NArg() > 0 {
		fs.Usage()
		return ExitUsage
	}
	policySrc, err := os.ReadFile(*policyPath)
	if err != nil {
		fmt.Fprintln(stderr, "pflow gate:", err)
		return ExitUsage
	}
	if _, err := perflow.ParsePolicyString(string(policySrc)); err != nil {
		fmt.Fprintln(stderr, "pflow gate:", err)
		return ExitUsage
	}

	req := perflow.AnalysisRequest{
		Workload:    *workload,
		Analysis:    *analysis,
		Ranks:       *ranks,
		Ranks2:      *ranks2,
		Threads:     *threads,
		Top:         *topN,
		Parallelism: *par,
		NoPlan:      *noPlan,
		SkipLint:    *skipLint,
		Faults:      *faults,
		Policies:    []string{string(policySrc)},
	}
	if *dslPath != "" {
		src, err := os.ReadFile(*dslPath)
		if err != nil {
			fmt.Fprintln(stderr, "pflow gate:", err)
			return ExitUsage
		}
		req.DSL = string(src)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	reportSink := io.Discard
	if *report {
		reportSink = stdout
	}
	outcome, err := perflow.New().ExecuteRequest(ctx, req, reportSink)
	if err != nil {
		fmt.Fprintln(stderr, "pflow gate:", err)
		return ExitError
	}

	out := gateOutput{OK: !outcome.GateFailed, Violations: outcome.Violations, Diff: outcome.Diff}
	if out.Violations == nil {
		out.Violations = []perflow.PolicyViolation{}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "pflow gate:", err)
			return ExitError
		}
	} else {
		for _, v := range out.Violations {
			fmt.Fprintf(stdout, "GATE %s [%s] %s\n", v.Severity, v.Code, v.Message)
		}
		if out.OK {
			fmt.Fprintln(stdout, "gate: PASS")
		} else {
			fmt.Fprintln(stdout, "gate: FAIL")
		}
	}
	if outcome.GateFailed {
		return ExitGateFailed
	}
	return ExitOK
}
