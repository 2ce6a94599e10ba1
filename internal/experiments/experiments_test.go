package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The experiments run at reduced scale in tests; the pflow-bench command
// uses the paper's scales.

func TestTable1ShapesHold(t *testing.T) {
	rows, err := Table1(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table1Programs()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Program] = r
		if r.StaticMS < 0 || r.SpaceBytes <= 0 {
			t.Errorf("%s: degenerate measurements %+v", r.Program, r)
		}
		if r.DynamicPct < 0 || r.DynamicPct > 60 {
			t.Errorf("%s: overhead %.2f%% outside plausible range", r.Program, r.DynamicPct)
		}
	}
	// Paper shapes: CG's point-to-point-rich pattern costs more than EP's
	// near-zero communication; LAMMPS has the largest PAG of the apps.
	if byName["cg"].DynamicPct <= byName["ep"].DynamicPct {
		t.Errorf("CG overhead (%.3f%%) should exceed EP (%.3f%%)",
			byName["cg"].DynamicPct, byName["ep"].DynamicPct)
	}
	if byName["lammps"].SpaceBytes <= byName["is"].SpaceBytes {
		t.Errorf("LAMMPS space (%d) should exceed IS (%d)",
			byName["lammps"].SpaceBytes, byName["is"].SpaceBytes)
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "zeusmp") {
		t.Error("rendered table incomplete")
	}
}

func TestTable2ShapesHold(t *testing.T) {
	rows, err := Table2(8)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Program] = r
		if r.TopDownV <= 0 || r.TopDownE <= 0 || r.ParallelV <= 0 {
			t.Errorf("%s: empty views %+v", r.Program, r)
		}
		// The parallel view multiplies executed structure by rank count.
		if r.ParallelV <= r.TopDownV/4 {
			t.Errorf("%s: parallel view suspiciously small: %d vs top-down %d",
				r.Program, r.ParallelV, r.TopDownV)
		}
	}
	if !(byName["lammps"].TopDownV > byName["zeusmp"].TopDownV &&
		byName["zeusmp"].TopDownV > byName["vite"].TopDownV &&
		byName["vite"].TopDownV > byName["mg"].TopDownV) {
		t.Errorf("Table 2 app ordering broken: lammps=%d zeusmp=%d vite=%d mg=%d",
			byName["lammps"].TopDownV, byName["zeusmp"].TopDownV,
			byName["vite"].TopDownV, byName["mg"].TopDownV)
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "par |V|") {
		t.Error("rendered table incomplete")
	}
}

func TestCaseAShape(t *testing.T) {
	var report bytes.Buffer
	res, err := CaseA(8, 64, &report)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1 || res.Speedup >= res.IdealSpeedup {
		t.Errorf("speedup = %.2f, want sublinear in (1, %.0f)", res.Speedup, res.IdealSpeedup)
	}
	if res.SpeedupOptimized <= res.Speedup {
		t.Errorf("optimized speedup %.2f should beat original %.2f", res.SpeedupOptimized, res.Speedup)
	}
	if res.ImprovementPct <= 0 {
		t.Errorf("improvement = %.2f%%", res.ImprovementPct)
	}
	joined := strings.Join(res.RootCauseLocations, " ")
	if !strings.Contains(joined, "bvald.F") {
		t.Errorf("root-cause locations miss bvald.F: %v", res.RootCauseLocations)
	}
	var buf bytes.Buffer
	WriteCaseA(&buf, res)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("rendered summary incomplete")
	}
}

func TestCaseBShape(t *testing.T) {
	var report bytes.Buffer
	res, err := CaseB(16, &report)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommFractionPct <= 0 || res.CommFractionPct >= 100 {
		t.Errorf("comm fraction = %.2f%%", res.CommFractionPct)
	}
	if res.SendPct <= 0 || res.WaitPct <= 0 {
		t.Errorf("send/wait shares = %.2f/%.2f", res.SendPct, res.WaitPct)
	}
	if res.ImprovementPct <= 0 {
		t.Errorf("balance fix improvement = %.2f%%", res.ImprovementPct)
	}
	joined := strings.Join(res.CausePathLocations, " ")
	if !strings.Contains(joined, "pair_lj_cut.cpp") {
		t.Errorf("cause paths miss pair_lj_cut.cpp: %v", res.CausePathLocations)
	}
	var buf bytes.Buffer
	WriteCaseB(&buf, res)
	if !strings.Contains(buf.String(), "throughput") {
		t.Error("rendered summary incomplete")
	}
}

func TestCaseCShape(t *testing.T) {
	res, err := CaseC(4, []int{2, 4, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupOrig >= 1 {
		t.Errorf("original 2->8 speedup = %.2f, want < 1 (the inversion)", res.SpeedupOrig)
	}
	if res.SpeedupOpt <= 1 {
		t.Errorf("optimized 2->8 speedup = %.2f, want > 1", res.SpeedupOpt)
	}
	if res.Improvement8 < 4 {
		t.Errorf("8-thread improvement = %.2f, want >= 4", res.Improvement8)
	}
	if res.ContentionEmbeddings == 0 {
		t.Error("no contention embeddings")
	}
	joined := strings.Join(res.DifferentialTop, " ")
	if !strings.Contains(joined, "alloc") && !strings.Contains(joined, "omp_parallel") {
		t.Errorf("differential top misses allocator machinery: %v", res.DifferentialTop)
	}
	if len(res.Points) != 3 {
		t.Errorf("Figure 13 points = %d, want 3", len(res.Points))
	}
	var buf bytes.Buffer
	WriteCaseC(&buf, res)
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Error("rendered summary incomplete")
	}
}

func TestCompareShape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Compare(64, &buf)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]CompareRow{}
	for _, r := range rows {
		by[r.Tool] = r
	}
	// The §5.3 shape: tracing overhead and storage dominate sampling.
	if by["Scalasca"].OverheadPct <= by["PerFlow"].OverheadPct {
		t.Errorf("Scalasca overhead (%.2f%%) should exceed PerFlow (%.2f%%)",
			by["Scalasca"].OverheadPct, by["PerFlow"].OverheadPct)
	}
	if by["Scalasca"].StorageB <= by["PerFlow"].StorageB {
		t.Errorf("Scalasca storage (%d) should exceed PerFlow PAG (%d)",
			by["Scalasca"].StorageB, by["PerFlow"].StorageB)
	}
	if by["mpiP"].StorageB >= by["Scalasca"].StorageB {
		t.Error("mpiP storage should be tiny")
	}
	if !strings.Contains(buf.String(), "Scalasca") {
		t.Error("rendered comparison incomplete")
	}
}

func TestLoCCount(t *testing.T) {
	res, err := LoC("../../examples/scalability/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if res.ParadigmStatements <= 0 || res.ParadigmStatements > 40 {
		t.Errorf("paradigm statements = %d, want small and positive", res.ParadigmStatements)
	}
	if res.ScalAnaEquivalent != 0 {
		// Relative paths to the baseline sources only resolve from the repo
		// root; from the test directory they are absent and count zero.
		t.Logf("ScalAna equivalent = %d lines", res.ScalAnaEquivalent)
	}
	var buf bytes.Buffer
	WriteLoC(&buf, res)
	if !strings.Contains(buf.String(), "27 lines") {
		t.Error("rendered LoC comparison incomplete")
	}
	if _, err := LoC("/nonexistent/file.go"); err == nil {
		t.Error("missing example file should error")
	}
}

func TestAblationHybridVsDynamic(t *testing.T) {
	rows, err := AblationHybridVsDynamic(8, []string{"cg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DynamicPct <= r.HybridPct {
			t.Errorf("%s: pure dynamic (%.2f%%) should exceed hybrid (%.2f%%)",
				r.Program, r.DynamicPct, r.HybridPct)
		}
	}
	var buf bytes.Buffer
	WriteHybridVsDynamic(&buf, rows)
	if !strings.Contains(buf.String(), "hybrid") {
		t.Error("render incomplete")
	}
}

func TestAblationSamplingVsTracing(t *testing.T) {
	rows, err := AblationSamplingVsTracing(8, []string{"cg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TracingPct <= r.SamplingPct {
			t.Errorf("%s: tracing overhead should dominate", r.Program)
		}
		if r.TracingB <= 0 || r.SamplingB <= 0 {
			t.Errorf("%s: missing storage numbers", r.Program)
		}
	}
	var buf bytes.Buffer
	WriteSamplingVsTracing(&buf, rows)
	if !strings.Contains(buf.String(), "trace(B)") {
		t.Error("render incomplete")
	}
}

func TestAblationMatchPruning(t *testing.T) {
	res, err := AblationMatchPruning(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings == 0 {
		t.Error("no embeddings found")
	}
	if res.WithPruning <= 0 || res.WithoutPrune <= 0 {
		t.Error("timings not recorded")
	}
}

func TestAblationParallelViewScaling(t *testing.T) {
	rows, err := AblationParallelViewScaling([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Vertices <= rows[0].Vertices {
		t.Errorf("parallel view should grow with ranks: %+v", rows)
	}
	var buf bytes.Buffer
	WriteParallelViewScaling(&buf, rows)
	if !strings.Contains(buf.String(), "build(ms)") {
		t.Error("render incomplete")
	}
}

func TestAEModelValidation(t *testing.T) {
	res, err := AEModelValidation(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no call sites cross-validated")
	}
	// The PAG embedding and the trace aggregation see the same events; per
	// call site they must agree to numerical precision.
	if res.MaxRelErr > 1e-6 {
		t.Errorf("PAG vs trace disagreement: max rel err %.2e", res.MaxRelErr)
	}
	var buf bytes.Buffer
	WriteAEModel(&buf, res)
	if !strings.Contains(buf.String(), "max relative error") {
		t.Error("render incomplete")
	}
}

func TestAEPassValidation(t *testing.T) {
	res, err := AEPassValidation(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathLen == 0 {
		t.Fatal("empty critical path")
	}
	if !res.ThroughLock {
		t.Error("critical path avoids the contended critical section")
	}
	if res.CoverageOfSpan < 0.3 {
		t.Errorf("path covers only %.0f%% of the makespan", 100*res.CoverageOfSpan)
	}
	var buf bytes.Buffer
	WriteAEPass(&buf, res)
	if !strings.Contains(buf.String(), "critical section") {
		t.Error("render incomplete")
	}
}
