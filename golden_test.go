package perflow_test

// End-to-end golden matrix: every shipped example DSL program and every
// built-in workload runs through perflow.Run and the shared AnalyzeCtx
// dispatcher at ranks 4 and 8, and the report output is snapshotted. The
// simulator deals exclusively in virtual time, so reports are byte-stable
// across runs, machines and -j settings; normalizeReport only guards
// against incidental whitespace drift. Refactors of the serve/run path
// cannot silently change analysis results without failing this matrix.
//
// Regenerate with: go test -run 'TestGoldenReports|TestGoldenContention' -update .

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perflow"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report snapshots")

// goldenRanks are the scales of the matrix (the paper's mpirun -np 4
// example plus the CLI default).
var goldenRanks = []int{4, 8}

// goldenAnalyses are the report-producing analyses snapshotted for every
// program; both run on the top-down view only, keeping the matrix fast.
var goldenAnalyses = []string{"profile", "hotspot"}

// normalizeReport strips trailing whitespace per line and normalizes line
// endings; all remaining bytes are deterministic virtual-time output and
// compared exactly.
func normalizeReport(s string) string {
	lines := strings.Split(strings.ReplaceAll(s, "\r\n", "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return strings.Join(lines, "\n")
}

func goldenCase(t *testing.T, name string, ranks int, load func(pf *perflow.PerFlow, opts perflow.RunOptions) (*perflow.Result, error)) {
	t.Helper()
	pf := perflow.New()
	var report bytes.Buffer
	res, err := load(pf, perflow.RunOptions{Ranks: ranks, SkipParallelView: true})
	if err != nil {
		// Some example programs are shaped for a specific communicator
		// size (pipeline.pfl ends its chain at rank 7) and deadlock at
		// others; the diagnostic itself is the behavior to pin down.
		fmt.Fprintf(&report, "==== run error ====\n%v\n", err)
	} else {
		for _, analysis := range goldenAnalyses {
			fmt.Fprintf(&report, "==== %s ====\n", analysis)
			if _, err := pf.AnalyzeCtx(context.Background(), res, nil, analysis, 10, &report); err != nil {
				t.Fatalf("analyze %s: %v", analysis, err)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden", fmt.Sprintf("%s_r%d.golden", name, ranks)), report.String())
}

// checkGolden compares a report against its snapshot at path, or rewrites
// the snapshot under -update.
func checkGolden(t *testing.T, path, report string) {
	t.Helper()
	got := normalizeReport(report)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenContention pins the contention-detection report (paper §5.5,
// Figure 16) on the parallel view of the two threaded programs: the Vite
// model and the threads_contention DSL example, at 8 ranks × 4 threads.
// The report lists every vertex of every embedding, so it also pins which
// embeddings the per-anchor cap keeps.
func TestGoldenContention(t *testing.T) {
	const ranks, threads = 8, 4
	cases := []struct {
		name string
		load func(pf *perflow.PerFlow, opts perflow.RunOptions) (*perflow.Result, error)
	}{
		{"vite", func(pf *perflow.PerFlow, opts perflow.RunOptions) (*perflow.Result, error) {
			return pf.RunWorkload("vite", opts)
		}},
		{"threads_contention", func(pf *perflow.PerFlow, opts perflow.RunOptions) (*perflow.Result, error) {
			f, err := os.Open(filepath.Join("examples", "dsl", "threads_contention.pfl"))
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return pf.RunDSL(f, opts)
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			pf := perflow.New()
			res, err := c.load(pf, perflow.RunOptions{Ranks: ranks, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			if _, err := pf.AnalyzeCtx(context.Background(), res, nil, "contention", 10, &report); err != nil {
				t.Fatalf("analyze contention: %v", err)
			}
			checkGolden(t, filepath.Join("testdata", "golden",
				fmt.Sprintf("contention_%s_r%d_t%d.golden", c.name, ranks, threads)), report.String())
		})
	}
}

// TestGoldenDegradedReports pins the fault-injection path end to end: a
// crashed rank in the halo2d stencil must produce a report with a
// data-quality section (not an error), byte-stable across runs and -j
// settings like the clean matrix.
func TestGoldenDegradedReports(t *testing.T) {
	const faultSpec = "seed=7;crash:rank=3,at=200"
	for _, ranks := range goldenRanks {
		ranks := ranks
		t.Run(fmt.Sprintf("crashed_halo2d_r%d", ranks), func(t *testing.T) {
			t.Parallel()
			goldenCase(t, "degraded_halo2d", ranks, func(pf *perflow.PerFlow, opts perflow.RunOptions) (*perflow.Result, error) {
				plan, err := perflow.ParseFaultPlan(faultSpec)
				if err != nil {
					return nil, err
				}
				opts.Faults = plan
				f, err := os.Open(filepath.Join("examples", "dsl", "halo2d.pfl"))
				if err != nil {
					return nil, err
				}
				defer f.Close()
				return pf.RunDSL(f, opts)
			})
		})
	}
}

func TestGoldenReports(t *testing.T) {
	// Every built-in workload.
	for _, name := range perflow.Workloads() {
		name := name
		for _, ranks := range goldenRanks {
			ranks := ranks
			t.Run(fmt.Sprintf("workload_%s_r%d", name, ranks), func(t *testing.T) {
				t.Parallel()
				goldenCase(t, "workload_"+name, ranks, func(pf *perflow.PerFlow, opts perflow.RunOptions) (*perflow.Result, error) {
					return pf.RunWorkload(name, opts)
				})
			})
		}
	}
	// Every shipped example DSL program (the bad/ fixtures are lint-error
	// regression inputs, covered by their own golden tests).
	paths, err := filepath.Glob(filepath.Join("examples", "dsl", "*.pfl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example DSL programs found")
	}
	for _, p := range paths {
		p := p
		base := strings.TrimSuffix(filepath.Base(p), ".pfl")
		for _, ranks := range goldenRanks {
			ranks := ranks
			t.Run(fmt.Sprintf("dsl_%s_r%d", base, ranks), func(t *testing.T) {
				t.Parallel()
				goldenCase(t, "dsl_"+base, ranks, func(pf *perflow.PerFlow, opts perflow.RunOptions) (*perflow.Result, error) {
					f, err := os.Open(p)
					if err != nil {
						return nil, err
					}
					defer f.Close()
					return pf.RunDSL(f, opts)
				})
			})
		}
	}
}
