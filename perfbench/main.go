// Command perfbench is PerFlow's end-to-end benchmark. One process runs one
// named workload for a fixed time, checks every report it produces against
// checked-in SHA-256 digests, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	perfbench -workload pipeline-mix -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// -trace 1 it runs the same workload with every call into a layer timed from
// this package (the program itself is not instrumented) and prints the
// per-layer metrics, a per-layer breakdown, and a self-hosting check that
// feeds the breakdown back through PerFlow's own HotspotDetection.
//
// -gen-digests regenerates digests.txt from the request universe of every
// workload. run.sh builds this package and forwards its arguments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runEnv is what one workload run gets from the command line.
type runEnv struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workdir holds scratch files (the serve workload's journal and store).
	workdir string
	oracle  *oracle
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// metrics holds the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run), by BENCHMARK.json name.
	metrics map[string]float64
	// log is the traced run's span log; nil for an untraced run.
	log *spanLog
}

// workloadSpec binds a workload name to its runner and its request universe
// (every request any seed can draw, for digest generation).
type workloadSpec struct {
	name     string
	run      func(ctx context.Context, env *runEnv) (*outcome, error)
	universe func() []caseSpec
}

// caseSpec is one request of a workload's universe: an identifier and a
// direct execution yielding the bytes the oracle digests.
type caseSpec struct {
	id   string
	exec func(ctx context.Context) ([]byte, error)
}

var workloads = []workloadSpec{
	{name: "pipeline-mix", run: runPipelineMix, universe: pipelineUniverse},
	{name: "offline-analysis", run: runOffline, universe: offlineUniverse},
	{name: "serve-durable", run: runServeDurable, universe: serveUniverse},
}

// endToEnd and perLayer are the metric names and units of BENCHMARK.json, in
// its order. The smoke test asserts they match the file.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p95_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"alloc_mb_per_req", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"ir.parse_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"lint.alloc_kb", "KB"},
	{"sdf.predict_ms", "ms"},
	{"diff.compute_ms", "ms"},
	{"policy.eval_ms", "ms"},
	{"collector.collect_ms", "ms"},
	{"mpisim.run_ms", "ms"},
	{"mpisim.events", "count"},
	{"mpisim.events_per_ms", "1/ms"},
	{"mpisim.alloc_kb", "KB"},
	{"pag.topdown_build_ms", "ms"},
	{"pag.embed_ms", "ms"},
	{"pag.parallel_build_ms", "ms"},
	{"pag.parallel_vertices", "count"},
	{"pag.parallel_edges", "count"},
	{"pag.serialize_ms", "ms"},
	{"pag.alloc_kb", "KB"},
	{"graph.freeze_ms", "ms"},
	{"collector.unattributed_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.engine_wall_ms", "ms"},
	{"core.pass_self_ms", "ms"},
	{"core.sched_overhead_ms", "ms"},
	{"core.stages", "count"},
	{"core.fused_passes", "count"},
	{"core.report_bytes", "bytes"},
	{"core.profile_ms", "ms"},
	{"core.hotspot_ms", "ms"},
	{"core.comm_ms", "ms"},
	{"core.critical_ms", "ms"},
	{"core.waitstates_ms", "ms"},
	{"core.contention_ms", "ms"},
	{"core.scalability_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"journal.append_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.breaker_trips", "count"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"loadgen.lag_p95_ms", "ms"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run: pipeline-mix, offline-analysis or serve-durable")
		seed       = flag.Int64("seed", 1, "seed the workload's requests are drawn from")
		seconds    = flag.Float64("seconds", 20, "measurement time")
		traceFlag  = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		workdir    = flag.String("workdir", ".bench_build", "directory for scratch files")
		digests    = flag.String("digests", "perfbench/digests.txt", "checked-in report digests")
		genDigests = flag.Bool("gen-digests", false, "regenerate the digest file from every workload's request universe")
	)
	flag.Parse()
	ctx := context.Background()
	if *genDigests {
		if err := writeDigests(ctx, *digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	spec := findWorkload(*workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	orc, err := loadOracle(*digests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag != 0,
		workdir: *workdir,
		oracle:  orc,
	}
	res, err := runOne(ctx, spec, env, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runOne runs a workload, prints its environment stamp (and, traced, its
// breakdown) to out, and assembles the result object.
func runOne(ctx context.Context, spec *workloadSpec, env *runEnv, out io.Writer) (*result, error) {
	if err := os.MkdirAll(env.workdir, 0o755); err != nil {
		return nil, err
	}
	env.workdir, _ = filepath.Abs(env.workdir)
	fmt.Fprintln(out, stampEnvironment(env.workdir).String())
	steal0, total0, _ := cpuTicks()
	oc, err := spec.run(ctx, env)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	// A run on a host whose other guests take CPU time is slow as a whole;
	// the stolen share tells such a run from a regression.
	if s := stealShare(steal0, total0); s >= 0 {
		fmt.Fprintf(out, "host: %.1f%% of CPU time stolen by other guests during the run\n", 100*s)
	}
	defs := endToEnd
	if env.trace {
		defs = perLayer
		bd, err := oc.log.breakdown()
		if err != nil {
			return nil, err
		}
		bd.write(out, spec.name, env.seed)
		if !bd.selfHostAgrees() {
			fmt.Fprintf(out, "self-hosting check FAILED: HotspotDetection names %q, breakdown names %q\n", bd.selfHostTop, bd.dominant)
			oc.failed++
		}
		// A stage replay that no longer reproduces the collection means the
		// replayed collector constants drifted from the collector's, and the
		// per-stage figures would be built from the wrong run.
		oc.failed += bd.diverged
		oc.metrics["trace.unattributed_frac"] = bd.unattributedFrac
		oc.metrics["trace.overhead_frac"] = oc.log.overheadFrac()
	}
	res := &result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		res.Correct = false
	}
	var missing []string
	for _, d := range defs {
		v, ok := oc.metrics[d.name]
		if !ok && !env.trace {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: end-to-end metrics not measured: %v", spec.name, missing)
	}
	return res, nil
}
