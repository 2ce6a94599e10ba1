package collector

import (
	"context"
	"errors"
	"testing"
	"time"

	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
)

func program(t testing.TB) *ir.Program {
	p, err := ir.NewBuilder("coltest").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("steps", 2, ir.Const(10), func(lb *ir.Body) {
				lb.Compute("work", 3, ir.Expr{Base: 100, Scaling: ir.ScaleInvP, Factor: map[int]float64{0: 2}})
				lb.Isend(4, ir.Peer{Kind: ir.PeerRight}, ir.Const(1024), 1, "s")
				lb.Irecv(5, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1024), 1, "r")
				lb.Waitall(6)
				lb.Allreduce(7, ir.Const(8))
			})
			l.CommPerIter = true
		}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// overhead runs a result's reference simulation and fails the test on error.
func overhead(t testing.TB, res *Result) (clean, pct float64) {
	t.Helper()
	clean, pct, err := res.Overhead(context.Background())
	if err != nil {
		t.Fatalf("Overhead: %v", err)
	}
	return clean, pct
}

func TestCollectHybrid(t *testing.T) {
	res, err := Collect(program(t), Options{Ranks: 4, Mode: ModeHybrid})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if res.TopDown == nil || res.Parallel == nil || res.Run == nil {
		t.Fatal("missing outputs")
	}
	if res.StaticTime <= 0 {
		t.Error("static time not measured")
	}
	_, pct := overhead(t, res)
	if pct <= 0 {
		t.Errorf("dynamic overhead = %v, want > 0", pct)
	}
	if pct > 20 {
		t.Errorf("hybrid overhead = %v%%, implausibly high", pct)
	}
	if res.PAGBytes() <= 0 {
		t.Error("PAG bytes not measured")
	}
	if res.TraceBytes != 0 {
		t.Error("trace bytes should be zero outside tracing mode")
	}
	// Embedded data present.
	workV := res.TopDown.G.FindVertexByName("work")
	if res.TopDown.G.Vertex(workV).Metric(pag.MetricExclTime) <= 0 {
		t.Error("embedding produced no exclusive time")
	}
}

func TestPureDynamicCostsMore(t *testing.T) {
	p := program(t)
	hy, err := Collect(p, Options{Ranks: 4, Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	dy, err := Collect(p, Options{Ranks: 4, Mode: ModePureDynamic})
	if err != nil {
		t.Fatal(err)
	}
	_, hyPct := overhead(t, hy)
	_, dyPct := overhead(t, dy)
	if dyPct <= hyPct {
		t.Errorf("pure dynamic (%v%%) should exceed hybrid (%v%%)", dyPct, hyPct)
	}
}

func TestTracingCostsAndStorage(t *testing.T) {
	p := program(t)
	hy, err := Collect(p, Options{Ranks: 4, Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Collect(p, Options{Ranks: 4, Mode: ModeTracing})
	if err != nil {
		t.Fatal(err)
	}
	_, hyPct := overhead(t, hy)
	_, trPct := overhead(t, tr)
	if trPct <= hyPct {
		t.Errorf("tracing overhead (%v%%) should exceed hybrid (%v%%)", trPct, hyPct)
	}
	if tr.TraceBytes <= 0 {
		t.Error("tracing mode should report trace storage")
	}
	if tr.TraceBytes <= hy.PAGBytes()/4 {
		t.Errorf("trace storage (%d) should rival or exceed PAG storage (%d)", tr.TraceBytes, hy.PAGBytes())
	}
}

func TestSkipParallelView(t *testing.T) {
	res, err := Collect(program(t), Options{Ranks: 2, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parallel != nil {
		t.Error("parallel view should be skipped")
	}
}

func TestCollectAtScales(t *testing.T) {
	p := program(t)
	small, large, err := CollectAtScales(p,
		Options{Ranks: 2, SkipParallelView: true},
		Options{Ranks: 8, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	if small.Run.NRanks != 2 || large.Run.NRanks != 8 {
		t.Errorf("scales wrong: %d/%d", small.Run.NRanks, large.Run.NRanks)
	}
	// Strong-scaled work: large run should be faster per the ScaleInvP cost.
	smallClean, _ := overhead(t, small)
	largeClean, _ := overhead(t, large)
	if largeClean >= smallClean {
		t.Errorf("large run (%v) should be faster than small (%v)", largeClean, smallClean)
	}
}

func TestCollectDefaults(t *testing.T) {
	res, err := Collect(program(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.NRanks != 1 {
		t.Errorf("default ranks = %d", res.Run.NRanks)
	}
}

// TestCollectAtScalesCtxCancellation: a context canceled after the small
// collection aborts before the large one starts; one canceled up front
// never collects at all.
func TestCollectAtScalesCtxCancellation(t *testing.T) {
	p := program(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CollectAtScalesCtx(ctx, p,
		Options{Ranks: 2, SkipParallelView: true},
		Options{Ranks: 8, SkipParallelView: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled collect: err = %v, want context.Canceled", err)
	}

	// A deadline shorter than the pipeline can possibly run: the error is
	// the context's, not a wrapped simulator failure.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	if _, _, err := CollectAtScalesCtx(dctx, p,
		Options{Ranks: 2, SkipParallelView: true},
		Options{Ranks: 8, SkipParallelView: true}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline collect: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCollectPartialCoverage: a crashed rank yields a Result whose Coverage
// reports the loss and whose top-down view carries data_quality tags,
// instead of an error.
func TestCollectPartialCoverage(t *testing.T) {
	plan, err := mpisim.ParseFaultPlan("seed=1;crash:rank=1,at=50")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(program(t), Options{Ranks: 4, Faults: plan})
	if err != nil {
		t.Fatalf("degraded collect must not fail: %v", err)
	}
	c := res.Coverage
	if c == nil || !c.Degraded() {
		t.Fatalf("coverage = %+v, want degraded", c)
	}
	if len(c.Crashed) != 1 || c.Crashed[0] != 1 {
		t.Errorf("crashed = %v, want [1]", c.Crashed)
	}
	tagged := 0
	for vid := 0; vid < res.TopDown.G.NumVertices(); vid++ {
		if res.TopDown.G.Vertex(graph.VertexID(vid)).Attr(pag.AttrDataQuality) == pag.QualityPartial {
			tagged++
		}
	}
	if tagged == 0 {
		t.Error("no top-down vertices tagged data_quality=partial")
	}
}
