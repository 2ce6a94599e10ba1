package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forwardPass returns a named pass that forwards its input unchanged.
func forwardPass(name string) Pass {
	return PassFunc{
		PassName: name,
		NumIn:    1,
		Fn:       func(in []*Set) ([]*Set, error) { return []*Set{in[0]}, nil },
	}
}

func TestChainWiresPortZeroPipeline(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv", "compute")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	tail := g.Chain(src, FilterPass("MPI_*"), forwardPass("fwd"))
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tail.Name() != "fwd" {
		t.Errorf("Chain returned %q, want the last node", tail.Name())
	}
	if out := res.Output(tail); out == nil || out.Len() != 2 {
		t.Errorf("chained pipeline output = %v", out)
	}
	// Chain with no passes returns the source itself.
	if got := g.Chain(src); got != src {
		t.Error("empty Chain should return src")
	}
}

func TestConnectRejectsDoubleWiring(t *testing.T) {
	env := fakeEnv("a")
	g := NewPerFlowGraph()
	s1 := g.AddSource("s1", AllVertices(env))
	s2 := g.AddSource("s2", AllVertices(env))
	sink := g.AddPass(forwardPass("sink"))
	if err := g.Connect(s1, 0, sink, 0); err != nil {
		t.Fatalf("first Connect: %v", err)
	}
	err := g.Connect(s2, 0, sink, 0)
	if err == nil || !strings.Contains(err.Error(), "already wired") {
		t.Fatalf("double wiring not rejected: %v", err)
	}
	// The original wiring survives the rejected attempt.
	res, runErr := g.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Output(sink).Len() != 1 {
		t.Error("original wiring lost after rejected rewire")
	}
}

func TestValidateRejectsCycleUpfront(t *testing.T) {
	g := NewPerFlowGraph()
	a := g.AddPass(forwardPass("a"))
	b := g.AddPass(forwardPass("b"))
	g.Connect(a, 0, b, 0)
	g.Connect(b, 0, a, 0)
	_, err := g.Run()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestValidateRejectsUnboundInputUpfront(t *testing.T) {
	env := fakeEnv("a")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	u := g.AddPass(UnionPass())
	g.Connect(src, 0, u, 1) // port 0 left unbound
	executed := false
	g.Chain(u, PassFunc{PassName: "witness", NumIn: 1, Fn: func(in []*Set) ([]*Set, error) {
		executed = true
		return in, nil
	}})
	_, err := g.Run()
	if err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Fatalf("unbound input not rejected: %v", err)
	}
	if executed {
		t.Error("validation must reject the graph before any pass runs")
	}
}

// TestSchedulerRunsIndependentBranchesConcurrently proves stage-level
// parallelism deterministically: N sibling passes block on a barrier that
// only opens once all N are in flight at the same time. A sequential
// scheduler would deadlock (caught by the watchdog).
func TestSchedulerRunsIndependentBranchesConcurrently(t *testing.T) {
	const branches = 4
	env := fakeEnv("a")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))

	arrived := make(chan struct{}, branches)
	open := make(chan struct{})
	var once sync.Once
	var arrivals int32
	for i := 0; i < branches; i++ {
		g.Chain(src, CtxPassFunc{
			PassName: fmt.Sprintf("gate_%d", i),
			NumIn:    1,
			Fn: func(ctx context.Context, in []*Set) ([]*Set, error) {
				if atomic.AddInt32(&arrivals, 1) == branches {
					once.Do(func() { close(open) })
				}
				arrived <- struct{}{}
				select {
				case <-open:
					return in, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(10 * time.Second):
					return nil, fmt.Errorf("barrier never opened: scheduler is not parallel")
				}
			},
		})
	}
	res, err := g.Run(WithMaxWorkers(branches))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trace().MaxParallelism(); got < branches {
		t.Errorf("max parallelism = %d, want >= %d", got, branches)
	}
}

func TestRunCtxCancellationDrainsWorkers(t *testing.T) {
	env := fakeEnv("a")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	started := make(chan struct{})
	blocker := g.Chain(src, CtxPassFunc{
		PassName: "blocker",
		NumIn:    1,
		Fn: func(ctx context.Context, in []*Set) ([]*Set, error) {
			close(started)
			<-ctx.Done() // honor cancellation
			return nil, ctx.Err()
		},
	})
	reached := false
	g.Chain(blocker, PassFunc{PassName: "downstream", NumIn: 1,
		Fn: func(in []*Set) ([]*Set, error) { reached = true; return in, nil }})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = g.RunCtx(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunCtx did not return after cancellation")
	}
	if runErr == nil || !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancellation error = %v", runErr)
	}
	if reached {
		t.Error("downstream pass ran after cancellation")
	}
}

func TestRunCtxHonorsDeadline(t *testing.T) {
	env := fakeEnv("a")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	g.Chain(src, CtxPassFunc{
		PassName: "slow",
		NumIn:    1,
		Fn: func(ctx context.Context, in []*Set) ([]*Set, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return in, nil
			}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.RunCtx(ctx); err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error = %v", err)
	}
}

// TestFirstErrorDeterministic runs two concurrently-failing sibling passes
// many times: the reported error must always come from the earlier-added
// node, regardless of which one failed first on the clock.
func TestFirstErrorDeterministic(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		env := fakeEnv("a")
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		mkFail := func(name string) Pass {
			return PassFunc{PassName: name, NumIn: 1, Fn: func(in []*Set) ([]*Set, error) {
				return nil, fmt.Errorf("%s exploded", name)
			}}
		}
		g.Chain(src, mkFail("first_fail"))
		g.Chain(src, mkFail("second_fail"))
		_, err := g.Run(WithMaxWorkers(2))
		if err == nil {
			t.Fatal("expected failure")
		}
		if !strings.Contains(err.Error(), "first_fail") {
			t.Fatalf("iteration %d: non-deterministic error: %v", iter, err)
		}
	}
}

// TestSlowEarlierFailureWins: the later-added sibling always fails first,
// yet the earlier-added node still runs to its own failure and is the one
// reported, under both executors. A context-aware pass added after the
// failure is canceled rather than waited for.
func TestSlowEarlierFailureWins(t *testing.T) {
	for _, planned := range []bool{true, false} {
		env := fakeEnv("a")
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		g.Chain(src, PassFunc{PassName: "first_fail", NumIn: 1, Fn: func(in []*Set) ([]*Set, error) {
			time.Sleep(20 * time.Millisecond)
			return nil, fmt.Errorf("first_fail exploded")
		}})
		g.Chain(src, PassFunc{PassName: "second_fail", NumIn: 1, Fn: func(in []*Set) ([]*Set, error) {
			return nil, fmt.Errorf("second_fail exploded")
		}})
		g.Chain(src, CtxPassFunc{PassName: "late_sibling", NumIn: 1,
			Fn: func(ctx context.Context, in []*Set) ([]*Set, error) {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(10 * time.Second):
					return in, nil
				}
			}})
		start := time.Now()
		_, err := g.Run(WithMaxWorkers(3), WithPlanning(planned))
		if err == nil || !strings.Contains(err.Error(), "first_fail") {
			t.Fatalf("planned=%v: error = %v, want first_fail", planned, err)
		}
		if time.Since(start) > 5*time.Second {
			t.Errorf("planned=%v: failure did not cancel the later sibling", planned)
		}
	}
}

func TestFailureCancelsSiblings(t *testing.T) {
	env := fakeEnv("a")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	g.Chain(src, PassFunc{PassName: "boom", NumIn: 1, Fn: func(in []*Set) ([]*Set, error) {
		return nil, fmt.Errorf("boom")
	}})
	sibling := g.Chain(src, CtxPassFunc{PassName: "sibling", NumIn: 1,
		Fn: func(ctx context.Context, in []*Set) ([]*Set, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return in, nil
			}
		}})
	start := time.Now()
	_, err := g.Run(WithMaxWorkers(2))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("failure did not cancel the in-flight sibling")
	}
	_ = sibling
}

func TestResultsByNameKeepsDuplicates(t *testing.T) {
	env := fakeEnv("MPI_Send", "compute")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	a := g.Chain(src, FilterPass("MPI_*"))   // filter(MPI_*)
	b := g.Chain(src, FilterPass("MPI_*"))   // same pass name, second node
	c := g.Chain(src, FilterPass("compute")) // distinct name
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	dups := res.ByName("filter(MPI_*)")
	if len(dups) != 2 {
		t.Fatalf("ByName kept %d duplicate-name outputs, want 2", len(dups))
	}
	if res.Output(a).Len() != 1 || res.Output(b).Len() != 1 || res.Output(c).Len() != 1 {
		t.Error("per-node outputs wrong")
	}
	// ByName on the distinct-name node returns exactly its one output.
	if solo := res.ByName("filter(compute)"); len(solo) != 1 {
		t.Errorf("ByName(filter(compute)) = %d outputs, want 1", len(solo))
	}
}

func TestFanOutConsumersGetPrivateSlices(t *testing.T) {
	env := fakeEnv("a", "b", "c")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	// A badly behaved consumer that truncates its input slice in place.
	g.Chain(src, PassFunc{PassName: "mutator", NumIn: 1, Fn: func(in []*Set) ([]*Set, error) {
		in[0].V = in[0].V[:1]
		return []*Set{in[0]}, nil
	}})
	victim := g.Chain(src, forwardPass("victim"))
	for i := 0; i < 10; i++ {
		res, err := g.Run(WithMaxWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Output(victim).Len(); got != 3 {
			t.Fatalf("fan-out sibling saw mutated input: len=%d, want 3", got)
		}
	}
}

func TestAfterOrdersAnnotationPasses(t *testing.T) {
	env := fakeEnv("a")
	var order []string
	var mu sync.Mutex
	mark := func(name string) Pass {
		return PassFunc{PassName: name, NumIn: 1, Fn: func(in []*Set) ([]*Set, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return in, nil
		}}
	}
	for iter := 0; iter < 10; iter++ {
		order = order[:0]
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		reader := g.Chain(src, mark("reader"))
		g.After(g.Chain(src, mark("writer")), reader)
		if _, err := g.Run(WithMaxWorkers(4)); err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 || order[0] != "reader" || order[1] != "writer" {
			t.Fatalf("iteration %d: After violated, order=%v", iter, order)
		}
	}
}

func TestExecutionTraceRecordsEveryPass(t *testing.T) {
	env := fakeEnv("MPI_Send", "compute")
	g := NewPerFlowGraph()
	src := g.AddSource("src", AllVertices(env))
	hot := g.Chain(src, FilterPass("MPI_*"), HotspotPass("etime", 1))
	res, err := g.Run(WithMaxWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace()
	if tr == nil || g.Trace() != tr {
		t.Fatal("trace missing or not surfaced on the graph")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(tr.Spans))
	}
	if tr.Workers != 2 {
		t.Errorf("workers = %d", tr.Workers)
	}
	for _, s := range tr.Spans {
		if s.Worker < 0 || s.Worker >= tr.Workers {
			t.Errorf("span %q has worker %d outside pool", s.Pass, s.Worker)
		}
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Pass)
		}
	}
	filter := tr.Span("filter(MPI_*)")
	if filter == nil || len(filter.InSizes) != 1 || filter.InSizes[0] != 2 ||
		len(filter.OutSizes) != 1 || filter.OutSizes[0] != 1 {
		t.Errorf("filter span sizes wrong: %+v", filter)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"execution trace", "filter(MPI_*)", "hotspot_detection", "worker"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, out)
		}
	}
	_ = hot
}

func TestEmptyGraphRuns(t *testing.T) {
	g := NewPerFlowGraph()
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes()) != 0 || res.Trace() == nil {
		t.Error("empty run malformed")
	}
}
