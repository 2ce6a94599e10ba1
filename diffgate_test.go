package perflow_test

// End-to-end coverage of the differential-analysis and policy-gate API:
// golden diff reports for the halo2d stencil (scale diff and
// healthy-vs-degraded diff), byte-determinism across -j settings, policy
// evaluation through ExecuteRequest, the policy-aware cache key, the CI
// gate self-check over the workload/example matrix, and the
// self-difference relation.
//
// Regenerate the goldens with: go test -run TestGoldenDiffReports -update .

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perflow"
)

// collectHalo2D runs examples/dsl/halo2d.pfl top-down at the given scale,
// optionally fault-injected, with an explicit -j setting.
func collectHalo2D(t *testing.T, ranks int, faults string, parallelism int) *perflow.Result {
	t.Helper()
	plan, err := perflow.ParseFaultPlan(faults)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("examples", "dsl", "halo2d.pfl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := perflow.New().RunDSL(f, perflow.RunOptions{
		Ranks: ranks, SkipParallelView: true, Faults: plan, Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenDiffReports pins the rendered differential report for the two
// canonical comparisons: scaling 4→8 ranks, and healthy vs. crash-degraded
// at the same scale. The same diff recomputed at -j 8 must be
// byte-identical (virtual time, sorted output, two-decimal rounding).
func TestGoldenDiffReports(t *testing.T) {
	cases := []struct {
		name             string
		aRanks, bRanks   int
		aFaults, bFaults string
	}{
		{"halo2d_r4_r8", 4, 8, "", ""},
		{"halo2d_r8_degraded", 8, 8, "", "seed=7;crash:rank=3,at=200"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			render := func(parallelism int) string {
				rep := perflow.Diff(
					collectHalo2D(t, tc.aRanks, tc.aFaults, parallelism),
					collectHalo2D(t, tc.bRanks, tc.bFaults, parallelism))
				var buf bytes.Buffer
				perflow.WriteDiffReport(&buf, rep)
				return normalizeReport(buf.String())
			}
			got := render(1)
			if j8 := render(8); j8 != got {
				t.Errorf("diff report differs between -j 1 and -j 8\n--- j1 ---\n%s\n--- j8 ---\n%s", got, j8)
			}

			path := filepath.Join("testdata", "golden", "diff_"+tc.name+".golden")
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
				t.Errorf("diff report drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

func halo2dSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("examples", "dsl", "halo2d.pfl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func readPolicy(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "policies", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestExecuteRequestGateHealthy: the CI policy passes a healthy run; the
// mpi_pct warn rule fires at 8 ranks without failing the gate.
func TestExecuteRequestGateHealthy(t *testing.T) {
	outcome, err := perflow.New().ExecuteRequest(context.Background(), perflow.AnalysisRequest{
		DSL: halo2dSource(t), Analysis: "profile", Ranks: 8,
		Policies: []string{readPolicy(t, "ci.policy")},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.GateFailed {
		t.Fatalf("healthy run failed the CI gate: %+v", outcome.Violations)
	}
	if len(outcome.Violations) != 1 || outcome.Violations[0].Code != "mpi_pct" ||
		outcome.Violations[0].Severity != perflow.PolicySevWarn {
		t.Errorf("want exactly the mpi_pct warn violation, got %+v", outcome.Violations)
	}
}

// TestExecuteRequestGateDegraded: a crash-degraded run violates both `no
// degraded` and `no_pass degraded`-style rules and fails the gate.
func TestExecuteRequestGateDegraded(t *testing.T) {
	outcome, err := perflow.New().ExecuteRequest(context.Background(), perflow.AnalysisRequest{
		DSL: halo2dSource(t), Analysis: "profile", Ranks: 8,
		Faults:   "seed=7;crash:rank=3,at=200",
		Policies: []string{readPolicy(t, "ci.policy"), "no_pass degraded"},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.GateFailed {
		t.Fatalf("degraded run passed the CI gate: %+v", outcome.Violations)
	}
	codes := map[string]bool{}
	for _, v := range outcome.Violations {
		codes[v.Code] = true
	}
	if !codes["degraded"] {
		t.Errorf("missing the degraded violation: %+v", outcome.Violations)
	}
}

// TestExecuteRequestScaleGate: ranks2 drives the differential report and
// its speedup_at/efficiency facts even for a single-scale analysis.
func TestExecuteRequestScaleGate(t *testing.T) {
	outcome, err := perflow.New().ExecuteRequest(context.Background(), perflow.AnalysisRequest{
		DSL: halo2dSource(t), Analysis: "profile", Ranks: 4, Ranks2: 8,
		Policies: []string{readPolicy(t, "scale.policy")},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Diff == nil {
		t.Fatal("ranks2 request produced no differential report")
	}
	if outcome.Diff.RankRatio != 2 {
		t.Errorf("RankRatio = %g, want 2", outcome.Diff.RankRatio)
	}
	if outcome.GateFailed {
		t.Errorf("scaling gate failed: %+v", outcome.Violations)
	}
	// An unsatisfiable speedup bound must fail with the speedup_at code.
	outcome, err = perflow.New().ExecuteRequest(context.Background(), perflow.AnalysisRequest{
		DSL: halo2dSource(t), Analysis: "profile", Ranks: 4, Ranks2: 8,
		Policies: []string{"speedup_at(2x) >= 1 * linear"},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.GateFailed || len(outcome.Violations) != 1 || outcome.Violations[0].Code != "speedup_at" {
		t.Errorf("want a failing speedup_at violation, got failed=%v %+v", outcome.GateFailed, outcome.Violations)
	}
}

// TestExecuteRequestScaleFactWithoutRanks2: a differential fact on a
// single-run gate is an evaluation error (analysis error), never a silent
// pass.
func TestExecuteRequestScaleFactWithoutRanks2(t *testing.T) {
	_, err := perflow.New().ExecuteRequest(context.Background(), perflow.AnalysisRequest{
		DSL: halo2dSource(t), Analysis: "profile", Ranks: 4,
		Policies: []string{"speedup_at(2x) >= 0.7 * linear"},
	}, io.Discard)
	if err == nil {
		t.Fatal("speedup_at without ranks2 must be an evaluation error")
	}
	var ee *perflow.PolicyEvalError
	if !errors.As(err, &ee) {
		t.Errorf("want *PolicyEvalError, got %T: %v", err, err)
	}
}

// TestAnalysisRequestPolicyCacheKey pins policy canonicalization in the
// content address: reordered/reformatted policies share a key, different
// rules do not, and policies are part of content identity.
func TestAnalysisRequestPolicyCacheKey(t *testing.T) {
	base := perflow.AnalysisRequest{
		Workload: "cg", Analysis: "profile", Ranks: 4,
		Policies: []string{"wait_pct < 30\nno degraded"},
	}.WithDefaults()

	reordered := base
	reordered.Policies = []string{"no degraded", "wait_pct   <   30.0"}
	if base.CacheKey() != reordered.CacheKey() {
		t.Error("reordered/reformatted policy changed the cache key")
	}

	different := base
	different.Policies = []string{"wait_pct < 31\nno degraded"}
	if base.CacheKey() == different.CacheKey() {
		t.Error("different policy limit shares a cache key")
	}

	none := base
	none.Policies = nil
	if base.CacheKey() == none.CacheKey() {
		t.Error("policy presence must be part of the content address")
	}
}

// TestPolicyGateSelfCheck runs the shipped CI policy against the golden
// matrix programs and asserts the expected pass/fail set — the in-repo
// analogue of the ci.yml gate-self-check stage.
func TestPolicyGateSelfCheck(t *testing.T) {
	ciPolicy := readPolicy(t, "ci.policy")
	cases := []struct {
		name     string
		ranks    int
		faults   string
		wantFail bool
	}{
		{"halo2d_r4_healthy", 4, "", false},
		{"halo2d_r8_healthy", 8, "", false},
		{"halo2d_r8_crashed", 8, "seed=7;crash:rank=3,at=200", true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			outcome, err := perflow.New().ExecuteRequest(context.Background(), perflow.AnalysisRequest{
				DSL: halo2dSource(t), Analysis: "profile", Ranks: tc.ranks,
				Faults: tc.faults, Policies: []string{ciPolicy},
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if outcome.GateFailed != tc.wantFail {
				t.Errorf("gate failed = %v, want %v; violations: %+v",
					outcome.GateFailed, tc.wantFail, outcome.Violations)
			}
		})
	}
}

// TestDiffSelfDifference checks the self-difference relation: a run
// compared with itself has zero deltas, unit speedup at a 1x rank ratio,
// no appeared or vanished hotspot and no data-quality regression, and the
// CI gate policy passes on that diff.
func TestDiffSelfDifference(t *testing.T) {
	ciPolicy, err := perflow.ParsePolicyString(readPolicy(t, "ci.policy"))
	if err != nil {
		t.Fatal(err)
	}
	cg, err := perflow.New().RunWorkload("cg", perflow.RunOptions{Ranks: 8, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		res  *perflow.Result
	}{
		{"cg_r8", cg},
		{"halo2d_r8", collectHalo2D(t, 8, "", 1)},
	} {
		res := tc.res
		t.Run(tc.name, func(t *testing.T) {
			rep := perflow.Diff(res, res)
			a, b := *rep.A, *rep.B
			a.Label, b.Label = "", ""
			if !reflect.DeepEqual(a, b) {
				t.Errorf("summaries differ:\n%+v\n%+v", a, b)
			}
			for fact, want := range map[string]float64{
				"rank_ratio": 1, "speedup": 1, "efficiency": 1,
				"runtime_delta_pct": 0, "wait_delta_pct": 0,
				"late_sender_delta_pct": 0, "mpi_delta_pct": 0,
				"imbalance_delta": 0, "hotspot_growth_max_pct": 0,
				"data_quality_regressed": 0,
			} {
				if got, err := rep.Fact(fact, nil); err != nil || got != want {
					t.Errorf("%s = %v (err %v), want %v", fact, got, err, want)
				}
			}
			if got, err := rep.Fact("speedup_at", []string{"1x"}); err != nil || got != 1 {
				t.Errorf("speedup_at(1x) = %v (err %v), want 1", got, err)
			}
			if len(rep.Hotspots) == 0 {
				t.Fatal("self-difference has no hotspot rows to check")
			}
			for _, h := range rep.Hotspots {
				if h.DeltaUS != 0 || h.DeltaPct != 0 || h.AUS != h.BUS || h.Appeared || h.Vanished {
					t.Errorf("hotspot %s @ %s changed against itself: %+v", h.Name, h.Site, h)
				}
			}
			vs, err := perflow.EvaluatePolicy(ciPolicy, &perflow.GateInput{Result: res, Diff: rep})
			if err != nil {
				t.Fatal(err)
			}
			if perflow.PolicyFailed(vs) {
				t.Errorf("CI policy fails a run diffed with itself: %+v", vs)
			}
		})
	}
}

// TestDiffJSONDeterminism marshals the same diff twice (fresh collections)
// and byte-compares — the structured report must be as stable as the text.
func TestDiffJSONDeterminism(t *testing.T) {
	marshal := func(parallelism int) string {
		rep := perflow.Diff(
			collectHalo2D(t, 4, "", parallelism),
			collectHalo2D(t, 8, "seed=7;crash:rank=3,at=200", parallelism))
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := marshal(1), marshal(8); a != b {
		t.Errorf("diff JSON differs between -j 1 and -j 8:\n%s\n%s", a, b)
	}
}
