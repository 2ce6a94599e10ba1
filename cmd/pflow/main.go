// Command pflow is the PerFlow command-line front end: it runs a workload
// model or a DSL program under the simulator, builds the Program
// Abstraction Graph, and applies a chosen analysis.
//
// Usage:
//
//	pflow -list
//	pflow -workload zeusmp -ranks 64 -analysis profile
//	pflow -workload zeusmp -ranks 64 -analysis comm
//	pflow -workload zeusmp -ranks 8 -ranks2 64 -analysis scalability
//	pflow -workload zeusmp -ranks 64 -analysis comm -trace
//	pflow -workload vite -ranks 8 -threads 8 -analysis contention
//	pflow -workload lu -ranks 16 -analysis critical
//	pflow -dsl prog.pfl -ranks 4 -analysis hotspot -dot out.dot
//	pflow lint examples/dsl/*.pfl
//	pflow lint -json -ranks 8 prog.pfl
//	pflow serve -addr :7077 -workers 8 -queue 128 -cache-mb 64
//	pflow diff zeusmp zeusmp-opt -ranks 8
//	pflow diff halo2d.pfl -ranks 4 -b-ranks 8 -json
//	pflow gate -policy perf.policy -workload zeusmp -ranks 8 -ranks2 16
//	pflow predict -workload cg -ranks 64
//	pflow -workload lammps -ranks 16 -analysis comm -predict
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"perflow"
	"perflow/internal/interactive"
	"perflow/internal/ir"
	"perflow/internal/lint"
)

// runLint implements the "pflow lint" subcommand: run the static
// diagnostics engine over DSL files without simulating them. Exits 1 when
// any file fails to parse or has an error-severity finding; clean files
// produce no output.
func runLint(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log instead of text")
	ranks := fs.Int("ranks", 0, "pin the analysis to one communicator size (0 = only findings that hold at every modeled size)")
	baseline := fs.String("baseline", "", "suppress findings recorded in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "snapshot the (post-suppression) findings to this baseline file and exit 0")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pflow lint [-json|-sarif] [-ranks N] [-baseline file] [-write-baseline file] <file.pfl> ...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "pflow lint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}
	var base lint.Baseline
	if *baseline != "" {
		var err error
		if base, err = lint.LoadBaseline(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "pflow lint:", err)
			os.Exit(2)
		}
	}
	structured := *jsonOut || *sarifOut || *writeBaseline != ""
	exit := 0
	failed := false // parse/IO failures, never absorbed by a baseline snapshot
	var all []lint.Diagnostic
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pflow lint:", err)
			failed = true
			continue
		}
		prog, err := ir.ParseLenient(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pflow lint: %s: %v\n", path, err)
			failed = true
			continue
		}
		diags, err := lint.Run(prog, lint.Options{Ranks: *ranks})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pflow lint: %s: %v\n", path, err)
			failed = true
			continue
		}
		diags = base.Filter(diags)
		if lint.HasErrors(diags) {
			exit = 1
		}
		if structured {
			all = append(all, diags...)
			continue
		}
		var b strings.Builder
		if err := lint.Write(&b, diags); err != nil {
			fmt.Fprintln(os.Stderr, "pflow lint:", err)
			os.Exit(1)
		}
		// Prefix finding lines (not the indented related positions) with the
		// DSL path so multi-file output stays attributable.
		for _, line := range strings.SplitAfter(b.String(), "\n") {
			if line == "" {
				continue
			}
			if !strings.HasPrefix(line, "\t") {
				fmt.Print(path + ": ")
			}
			fmt.Print(line)
		}
	}
	switch {
	case *writeBaseline != "":
		f, err := os.Create(*writeBaseline)
		if err == nil {
			err = lint.WriteBaseline(f, all)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pflow lint:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pflow lint: wrote baseline with %d finding(s) to %s\n", len(all), *writeBaseline)
		// Snapshotting accepts the current findings; do not fail on them.
		exit = 0
	case *jsonOut:
		if err := lint.WriteJSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "pflow lint:", err)
			os.Exit(1)
		}
	case *sarifOut:
		if err := lint.WriteSARIF(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "pflow lint:", err)
			os.Exit(1)
		}
	}
	if failed {
		exit = 1
	}
	os.Exit(exit)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "lint":
			runLint(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		case "diff":
			os.Exit(runDiff(os.Args[2:], os.Stdout, os.Stderr))
		case "gate":
			os.Exit(runGate(os.Args[2:], os.Stdout, os.Stderr))
		case "predict":
			os.Exit(runPredict(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	var (
		repl     = flag.Bool("interactive", false, "start the interactive analysis session (§4.5)")
		list     = flag.Bool("list", false, "list built-in workloads and exit")
		workload = flag.String("workload", "", "built-in workload name")
		dslPath  = flag.String("dsl", "", "path to a program in the PerFlow DSL")
		ranks    = flag.Int("ranks", 8, "MPI rank count")
		ranks2   = flag.Int("ranks2", 0, "second (large) rank count for scalability analysis")
		threads  = flag.Int("threads", 1, "threads per rank in parallel regions")
		par      = flag.Int("j", 0, "worker count for sharded PAG construction (0 = all cores); results are identical at any setting")
		analysis = flag.String("analysis", "profile",
			"analysis to run: profile | hotspot | comm | scalability | contention | critical | timeline | waitstates")
		topN   = flag.Int("top", 10, "result count for hotspot-style analyses")
		faults = flag.String("faults", "",
			"deterministic fault-injection plan, e.g. \"seed=7;crash:rank=3,at=5000;drop:rank=1,prob=0.5;slow:rank=2,factor=4\"; the analysis degrades gracefully and reports data quality")
		predict  = flag.Bool("predict", false, "append the static prediction section: the symbolic engine's predicted communication matrix and cost model cross-checked against the collected run")
		skipLint = flag.Bool("skip-lint", false, "skip the static diagnostics gate before simulation")
		noPlan   = flag.Bool("noplan", false, "turn pass fusion off: run every pass as its own stage; reports are byte-identical either way")
		trace    = flag.Bool("trace", false, "after a paradigm analysis, print its per-pass execution trace (with the compiled plan unless -noplan)")
		dotOut   = flag.String("dot", "", "write the highlighted result graph in DOT format to this file")
		savePAG  = flag.String("save-pag", "", "after running, persist the top-down PAG to this file for offline analysis")
		loadPAG  = flag.String("load-pag", "", "skip running; analyze a previously saved PAG (profile/hotspot/comm/waitstates only)")
	)
	flag.Parse()

	if *list {
		for _, n := range perflow.Workloads() {
			fmt.Println(n)
		}
		return
	}
	if *repl {
		if err := interactive.New(os.Stdout).Run(os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "pflow:", err)
			os.Exit(1)
		}
		return
	}

	pf := perflow.New()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pflow:", err)
		os.Exit(1)
	}
	if _, err := perflow.ParseFaultPlan(*faults); err != nil {
		fmt.Fprintln(os.Stderr, "pflow: -faults:", err)
		os.Exit(2)
	}
	if !perflow.KnownAnalysis(*analysis) {
		fail(fmt.Errorf("unknown analysis %q (have %v)", *analysis, perflow.Analyses()))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The whole invocation runs through the shared perflow.ExecuteRequest
	// dispatcher — the same code path `pflow serve` and `pflow gate` use,
	// so a served job's report is byte-identical to this CLI invocation.
	var res *perflow.Result
	var highlight *perflow.Set
	if *loadPAG != "" {
		// Offline mode: analyze a previously saved PAG; no collection runs.
		var err error
		if res, err = perflow.LoadPAGResult(*loadPAG); err != nil {
			fail(err)
		}
		if highlight, err = pf.AnalyzeCtx(ctx, res, nil, *analysis, *topN, os.Stdout); err != nil {
			fail(err)
		}
	} else {
		req := perflow.AnalysisRequest{
			Workload:    *workload,
			Analysis:    *analysis,
			Ranks:       *ranks,
			Ranks2:      *ranks2,
			Threads:     *threads,
			Top:         *topN,
			Parallelism: *par,
			NoPlan:      *noPlan,
			Predict:     *predict,
			SkipLint:    *skipLint,
			Faults:      *faults,
		}
		if *dslPath != "" {
			src, err := os.ReadFile(*dslPath)
			if err != nil {
				fail(err)
			}
			req.DSL = string(src)
		}
		if req.Workload == "" && req.DSL == "" {
			fail(fmt.Errorf("need -workload or -dsl (try -list)"))
		}
		outcome, err := pf.ExecuteRequest(ctx, req, os.Stdout)
		if err != nil {
			fail(err)
		}
		res, highlight = outcome.Result, outcome.Set
		// -ranks2 with a single-scale analysis collects a second run just
		// for comparison; print its differential report after the analysis.
		if outcome.Diff != nil && !perflow.AnalysisNeedsTwoScales(*analysis) {
			perflow.WriteDiffReport(os.Stdout, outcome.Diff)
		}
	}

	if *trace {
		if pf.LastTrace == nil {
			fmt.Fprintln(os.Stderr, "pflow: -trace: this analysis does not run through the PerFlowGraph engine")
		} else if err := perflow.WriteTrace(os.Stdout, pf.LastTrace); err != nil {
			fail(err)
		}
	}

	if *savePAG != "" {
		if err := perflow.SavePAG(res, *savePAG); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "saved top-down PAG to %s\n", *savePAG)
	}

	if *dotOut != "" && highlight != nil {
		if err := os.WriteFile(*dotOut, []byte(perflow.DOT(highlight, *analysis)), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *dotOut)
	}
}
