package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func panicPass(name string) Pass {
	return PassFunc{
		PassName: name,
		NumIn:    1,
		Fn:       func(in []*Set) ([]*Set, error) { panic("boom: " + name) },
	}
}

// fusionModes is the WithPlanning axis the degraded-mode cases loop over:
// the failure contract must hold with fusion on and off alike.
var fusionModes = []bool{true, false}

// By default (no WithContinueOnFailure) a panicking pass fails the run with
// a *PassPanicError instead of unwinding through the worker pool.
func TestPanicBecomesErrorByDefault(t *testing.T) {
	for _, fused := range fusionModes {
		env := fakeEnv("a", "b")
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		g.Chain(src, panicPass("exploder"))
		_, err := g.Run(WithPlanning(fused))
		if err == nil {
			t.Fatalf("fused=%v: panicking pass should fail the run", fused)
		}
		var pe *PassPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("fused=%v: err = %v, want *PassPanicError", fused, err)
		}
		if pe.Pass != "exploder" || pe.Value != "boom: exploder" {
			t.Errorf("fused=%v: panic error = %+v", fused, pe)
		}
		if !strings.Contains(pe.Stack, "robust_test") {
			t.Errorf("fused=%v: panic error should carry the goroutine stack", fused)
		}
	}
}

// In degraded mode a panicking pass yields empty outputs, the rest of the
// graph completes, and the failure is recorded in the trace and Results.
func TestContinueOnFailureSubstitutesEmptySets(t *testing.T) {
	for _, fused := range fusionModes {
		env := fakeEnv("a", "b", "c")
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		bad := g.Chain(src, panicPass("bad"))
		good := g.Chain(src, forwardPass("good"))

		// Diamond: join consumes the failed branch and the healthy one.
		join := g.AddPass(UnionPass())
		g.Connect(bad, 0, join, 0)
		g.Connect(good, 0, join, 1)
		tail := g.Chain(join, forwardPass("tail"))

		res, err := g.Run(WithContinueOnFailure(), WithPlanning(fused))
		if err != nil {
			t.Fatalf("fused=%v: degraded run should not fail: %v", fused, err)
		}

		if out := res.Output(bad); out == nil || out.Len() != 0 {
			t.Errorf("fused=%v: failed pass output = %v, want empty set", fused, out)
		}
		// The healthy branch flows through the join untouched.
		if out := res.Output(tail); out == nil || out.Len() != 3 {
			t.Errorf("fused=%v: tail output = %v, want the 3 healthy vertices", fused, out)
		}

		fails := res.Failures()
		if len(fails) != 1 {
			t.Fatalf("fused=%v: failures = %+v, want exactly one", fused, fails)
		}
		f := fails[0]
		if f.Pass != "bad" || f.Reason != FailurePanic || !strings.Contains(f.Err, "boom") {
			t.Errorf("fused=%v: failure record = %+v", fused, f)
		}

		// Degradation propagates to everything downstream of the failure but
		// not to the healthy sibling branch.
		for n, want := range map[*PNode]bool{src: false, bad: true, good: false, join: true, tail: true} {
			if got := res.Degraded(n); got != want {
				t.Errorf("fused=%v: Degraded(%s) = %v, want %v", fused, n.Name(), got, want)
			}
		}
		degraded := res.DegradedNodes()
		if len(degraded) != 3 {
			t.Errorf("fused=%v: DegradedNodes = %d nodes, want 3", fused, len(degraded))
		}
		if res.Degraded(nil) {
			t.Errorf("fused=%v: Degraded(nil) must be false", fused)
		}
	}
}

// Pass errors (not just panics) are absorbed the same way.
func TestContinueOnFailureAbsorbsErrors(t *testing.T) {
	for _, fused := range fusionModes {
		env := fakeEnv("a")
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		bad := g.Chain(src, PassFunc{
			PassName: "err",
			NumIn:    1,
			Fn:       func(in []*Set) ([]*Set, error) { return nil, errors.New("synthetic") },
		})
		tail := g.Chain(bad, forwardPass("tail"))
		res, err := g.Run(WithContinueOnFailure(), WithPlanning(fused))
		if err != nil {
			t.Fatalf("fused=%v: %v", fused, err)
		}
		if fails := res.Failures(); len(fails) != 1 || fails[0].Reason != FailureError {
			t.Errorf("fused=%v: failures = %+v", fused, res.Failures())
		}
		if out := res.Output(tail); out == nil || out.Len() != 0 {
			t.Errorf("fused=%v: tail should have run on the empty substitute, got %v", fused, out)
		}
		if !res.Degraded(tail) {
			t.Errorf("fused=%v: tail must be marked degraded", fused)
		}
		// The degraded outcome also renders in the trace text.
		var sb strings.Builder
		if err := res.Trace().Write(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "degraded: 1 pass failure") {
			t.Errorf("fused=%v: trace text missing degraded section:\n%s", fused, sb.String())
		}
		// And in the JSON envelope.
		jt := BuildJSONTrace(res.Trace())
		if len(jt.Failures) != 1 || jt.Failures[0].Reason != FailureError {
			t.Errorf("fused=%v: JSON trace failures = %+v", fused, jt.Failures)
		}
	}
}

// A pass that exceeds WithPassTimeout fails with *PassTimeoutError; in
// degraded mode the run still completes.
func TestPassTimeout(t *testing.T) {
	slow := CtxPassFunc{
		PassName: "sleepy",
		NumIn:    1,
		Fn: func(ctx context.Context, in []*Set) ([]*Set, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return in, nil
			}
		},
	}

	t.Run("default mode fails the run", func(t *testing.T) {
		for _, fused := range fusionModes {
			env := fakeEnv("a")
			g := NewPerFlowGraph()
			src := g.AddSource("src", AllVertices(env))
			g.Chain(src, slow)
			_, err := g.Run(WithPassTimeout(30*time.Millisecond), WithPlanning(fused))
			var te *PassTimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("fused=%v: err = %v, want *PassTimeoutError", fused, err)
			}
			if te.Pass != "sleepy" || te.Limit != 30*time.Millisecond {
				t.Errorf("fused=%v: timeout error = %+v", fused, te)
			}
		}
	})

	t.Run("degraded mode records and continues", func(t *testing.T) {
		for _, fused := range fusionModes {
			env := fakeEnv("a")
			g := NewPerFlowGraph()
			src := g.AddSource("src", AllVertices(env))
			stuck := g.Chain(src, slow)
			tail := g.Chain(stuck, forwardPass("tail"))
			res, err := g.Run(WithPassTimeout(30*time.Millisecond), WithContinueOnFailure(), WithPlanning(fused))
			if err != nil {
				t.Fatalf("fused=%v: %v", fused, err)
			}
			if fails := res.Failures(); len(fails) != 1 || fails[0].Reason != FailureTimeout {
				t.Fatalf("fused=%v: failures = %+v", fused, res.Failures())
			}
			if out := res.Output(tail); out == nil {
				t.Errorf("fused=%v: downstream pass should still have run", fused)
			}
		}
	})

	t.Run("fast passes are unaffected", func(t *testing.T) {
		for _, fused := range fusionModes {
			env := fakeEnv("a")
			g := NewPerFlowGraph()
			src := g.AddSource("src", AllVertices(env))
			tail := g.Chain(src, forwardPass("quick"))
			res, err := g.Run(WithPassTimeout(5*time.Second), WithPlanning(fused))
			if err != nil {
				t.Fatalf("fused=%v: %v", fused, err)
			}
			if res.Output(tail).Len() != 1 {
				t.Errorf("fused=%v: fast pass output lost under timeout option", fused)
			}
		}
	})
}

// Run-level cancellation is never absorbed by degraded mode: it aborts the
// run with context.Canceled, not a recorded PassFailure.
func TestContinueOnFailureDoesNotAbsorbCancellation(t *testing.T) {
	for _, fused := range fusionModes {
		env := fakeEnv("a")
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		started := make(chan struct{})
		g.Chain(src, CtxPassFunc{
			PassName: "waiter",
			NumIn:    1,
			Fn: func(ctx context.Context, in []*Set) ([]*Set, error) {
				close(started)
				<-ctx.Done()
				return nil, ctx.Err()
			},
		})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-started
			cancel()
		}()
		_, err := g.RunCtx(ctx, WithContinueOnFailure(), WithPlanning(fused))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fused=%v: err = %v, want context.Canceled", fused, err)
		}
	}
}

// A clean run under degraded-mode options reports nothing degraded.
func TestCleanRunHasNoFailures(t *testing.T) {
	for _, fused := range fusionModes {
		env := fakeEnv("a", "b")
		g := NewPerFlowGraph()
		src := g.AddSource("src", AllVertices(env))
		tail := g.Chain(src, forwardPass("ok"))
		res, err := g.Run(WithContinueOnFailure(), WithPlanning(fused))
		if err != nil {
			t.Fatalf("fused=%v: %v", fused, err)
		}
		if len(res.Failures()) != 0 {
			t.Errorf("fused=%v: failures = %+v, want none", fused, res.Failures())
		}
		if res.Degraded(src) || res.Degraded(tail) || res.DegradedNodes() != nil {
			t.Errorf("fused=%v: clean run must not mark nodes degraded", fused)
		}
	}
}
