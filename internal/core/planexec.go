package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Stage execution: the bodies of the units RunCtx schedules. Every run
// executes a compiled plan, and a stage is one pass ("single" or
// "fallback", the only kinds with fusion off), a chain of fused passes, or
// one shared scan. Fan-out clones inside a stage disappear and a chain pays
// one scheduling round-trip instead of one per pass.

// planRun is the state one RunCtx shares across its workers.
type planRun struct {
	g     *PerFlowGraph
	dag   *nodeDAG
	p     *execPlan
	cfg   runConfig
	octx  context.Context // the caller's context, before the run's own cancel
	start time.Time

	mu       sync.Mutex // guards spans, failures and the scheduler state in RunCtx
	spans    []PassSpan
	failures []PassFailure // degraded mode: failures that did not stop the run
}

// isFatal is the one fatal-vs-absorbed classifier: a pass failure stops the
// run unless degraded mode absorbs it; run-level cancellation is never
// absorbed. octx distinguishes a pass's own deadline from the run being
// torn down.
func (r *planRun) isFatal(err error) bool {
	return !r.cfg.continueOnFailure || errors.Is(err, context.Canceled) ||
		(errors.Is(err, context.DeadlineExceeded) && r.octx.Err() != nil)
}

// absorb handles a failed member n. A fatal failure is left to the caller,
// which stops the stage and reports it (absorb returns false). Otherwise
// the failure is recorded as a PassFailure and n's outputs become its
// degraded-mode fallback, built over in, so the stage and the graph go on.
func (r *planRun) absorb(n *PNode, err error, in []*Set) bool {
	if r.isFatal(err) {
		return false
	}
	r.mu.Lock()
	r.failures = append(r.failures, PassFailure{
		Node: n.id, Pass: n.Name(), Reason: failureReason(err), Err: err.Error(),
	})
	r.mu.Unlock()
	n.outputs = r.g.fallbackFor(n, r.dag.consumers, in)
	return true
}

// record appends the span of one pass execution.
func (r *planRun) record(n *PNode, wid int, t0, t1 time.Duration, in, out []*Set, err error) {
	span := PassSpan{
		Node: n.id, Pass: n.Name(), Worker: wid,
		Start: t0, End: t1,
		InSizes: setSizes(in), OutSizes: setSizes(out),
	}
	if err != nil {
		span.Err = err.Error()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span)
	r.mu.Unlock()
}

// execStage runs one compiled stage on worker wid under ctx. Members
// execute in order; a degraded member substitutes fallback outputs and the
// stage continues. The returned fatal pair is non-zero when the run must
// stop.
func (r *planRun) execStage(ctx context.Context, st *planStage, wid int) (int, error) {
	if st.kind == "scan" {
		return r.execScanStage(ctx, st, wid)
	}
	for _, n := range st.nodes {
		in := make([]*Set, len(n.inputs))
		inputErr := error(nil)
		for i, ref := range n.inputs {
			if ref.port >= len(ref.node.outputs) {
				inputErr = fmt.Errorf("input %d reads missing output port %d of %q",
					i, ref.port, ref.node.Name())
				break
			}
			s := ref.node.outputs[ref.port]
			if s != nil && r.dag.consumers[portKey{ref.node.id, ref.port}] > 1 &&
				r.p.stageOf[ref.node.id] != st.id {
				// Copy-on-fan-out for cross-stage consumers; in-stage
				// consumers are pure by construction, so the clone is elided.
				s = s.Clone()
			}
			in[i] = s
		}
		if inputErr != nil {
			if !r.absorb(n, inputErr, nil) {
				return n.id, inputErr
			}
			continue
		}

		t0 := time.Since(r.start)
		out, err := runPassBounded(ctx, r.cfg.passTimeout, n.pass, in)
		r.record(n, wid, t0, time.Since(r.start), in, out, err)
		if err != nil {
			if !r.absorb(n, err, in) {
				return n.id, err
			}
			continue
		}
		n.outputs = out
	}
	return -1, nil
}

// execScanStage runs a fused scan stage: one sweep over the shared input
// set drives every member's kernel. A panicking kernel is isolated to its
// own PassFailure — survivors restart with fresh kernels (kernels are
// deterministic functions of their declared reads, so the rerun reproduces
// the same annotations and outputs).
func (r *planRun) execScanStage(ctx context.Context, st *planStage, wid int) (int, error) {
	ref := st.nodes[0].inputs[0]
	if ref.port >= len(ref.node.outputs) {
		err := fmt.Errorf("input 0 reads missing output port %d of %q", ref.port, ref.node.Name())
		for _, n := range st.nodes {
			if !r.absorb(n, err, nil) {
				return n.id, err
			}
		}
		return -1, nil
	}
	// The group covers every consumer of this port and every member is
	// pure, so all kernels read the producer's set directly — the fan-out
	// clones fusion-off execution would make are elided.
	in := ref.node.outputs[ref.port]
	inSlice := []*Set{in}

	type member struct {
		n    *PNode
		info PassInfo
		kern ScanKernel
		out  []*Set
		err  error
	}
	members := make([]*member, len(st.nodes))
	for i, n := range st.nodes {
		info, _ := passInfo(n.pass)
		members[i] = &member{n: n, info: info}
	}

	active := members
	t0 := time.Since(r.start)
	for len(active) > 0 {
		cur := 0
		panicked := false
		err := func() (err error) {
			defer func() {
				if rec := recover(); rec != nil {
					buf := make([]byte, 8<<10)
					buf = buf[:runtime.Stack(buf, false)]
					panicked = true
					err = &PassPanicError{Pass: active[cur].n.Name(), Value: rec, Stack: string(buf)}
				}
			}()
			for j, m := range active {
				cur = j
				m.kern = m.info.Scan(in)
			}
			if in != nil {
				for i, vid := range in.V {
					if i&1023 == 0 && ctx.Err() != nil {
						return ctx.Err()
					}
					for j, m := range active {
						cur = j
						m.kern.Visit(i, vid)
					}
				}
			}
			for j, m := range active {
				cur = j
				m.out, m.err = m.kern.Finish()
			}
			return nil
		}()
		if err == nil {
			break
		}
		if !panicked {
			// Run-level cancellation surfaced mid-scan.
			return active[cur].n.id, err
		}
		bad := active[cur]
		r.record(bad.n, wid, t0, time.Since(r.start), inSlice, nil, err)
		if !r.absorb(bad.n, err, inSlice) {
			return bad.n.id, err
		}
		// Restart survivors from scratch: partial kernel state is unusable,
		// and a full rerun reproduces identical results.
		next := active[:0:0]
		for _, m := range active {
			if m != bad {
				m.kern, m.out, m.err = nil, nil, nil
				next = append(next, m)
			}
		}
		active = next
		t0 = time.Since(r.start)
	}

	t1 := time.Since(r.start)
	for _, m := range active {
		r.record(m.n, wid, t0, t1, inSlice, m.out, m.err)
		if m.err != nil {
			if !r.absorb(m.n, m.err, inSlice) {
				return m.n.id, m.err
			}
			continue
		}
		m.n.outputs = m.out
	}
	return -1, nil
}
