package viz

import (
	"bytes"
	"strings"
	"testing"

	"perflow/internal/ir"
	"perflow/internal/mpisim"
	"perflow/internal/trace"
	"perflow/internal/workloads"
)

func testRun(t *testing.T) *trace.Run {
	t.Helper()
	run, err := mpisim.Run(workloads.ZeusMP(false), mpisim.Config{NRanks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTimelineRenders(t *testing.T) {
	run := testRun(t)
	var buf bytes.Buffer
	Timeline(&buf, run, TimelineOptions{Width: 60, MaxRanks: 4})
	out := buf.String()
	if !strings.Contains(out, "timeline:") {
		t.Fatal("missing header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + up to 4 rank rows (8 ranks, step 2).
	if len(lines) != 5 {
		t.Errorf("lines = %d, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Error("no compute glyphs")
	}
	if !strings.Contains(out, "p0") {
		t.Error("no rank labels")
	}
}

func TestTimelineShowsWaits(t *testing.T) {
	// One rank overloaded; the others' collective glyphs become waits.
	p := ir.NewBuilder("w").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("work", 2, ir.Expr{Base: 100, Factor: map[int]float64{0: 10}})
			b.Allreduce(3, ir.Const(8))
		}).MustBuild()
	run, err := mpisim.Run(p, mpisim.Config{NRanks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Timeline(&buf, run, TimelineOptions{Width: 60})
	if !strings.Contains(buf.String(), "~") {
		t.Errorf("no wait glyphs in:\n%s", buf.String())
	}
}

func TestTimelineEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	Timeline(&buf, &trace.Run{}, TimelineOptions{})
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty run not flagged")
	}
}

func TestHistogram(t *testing.T) {
	var buf bytes.Buffer
	Histogram(&buf, "time per rank", []float64{1, 4, 2, 0}, 20)
	out := buf.String()
	if !strings.Contains(out, "time per rank") || !strings.Contains(out, "█") {
		t.Errorf("histogram malformed:\n%s", out)
	}
	var empty bytes.Buffer
	Histogram(&empty, "zeros", []float64{0, 0}, 20)
	if !strings.Contains(empty.String(), "zeros") {
		t.Error("zero histogram should still print title")
	}
}
