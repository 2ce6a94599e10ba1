package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Planned execution: the stage-level twin of RunCtx's node-level loop. The
// same worker pool, ready queue, failure semantics and trace records apply,
// but the schedulable unit is a compiled stage — a chain of fused passes or
// one shared scan — so fan-out clones inside a stage disappear and a chain
// pays one scheduling round-trip instead of one per pass.

// runPlanned executes a compiled plan. nodeSuccs is the node-level
// successor list from validate(), needed for the degraded closure.
func (g *PerFlowGraph) runPlanned(ctx context.Context, cfg runConfig, workers int,
	p *execPlan, nodeSuccs [][]int, consumers map[portKey]int) (*Results, error) {

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu           sync.Mutex
		queue        = make(chan *planStage, len(p.stages))
		pending      int // stages enqueued and not yet settled
		front        = newFailFront(g, workers)
		passFailures []PassFailure
		spans        = make([]PassSpan, 0, len(g.nodes))
		indeg        = append([]int(nil), p.indeg...)
	)
	start := time.Now()

	// Hoisted materializations build concurrently with the earliest stages;
	// consumers block (inside the materials' sync.Once) only if they arrive
	// before their artifact is ready.
	var prewarm sync.WaitGroup
	for _, mat := range p.mats {
		prewarm.Add(1)
		go func(mt *planMat) {
			defer prewarm.Done()
			reused := mt.m.prewarm(mt.kind)
			mu.Lock()
			mt.info.Reused = reused
			mu.Unlock()
		}(mat)
	}

	for i, d := range indeg {
		if d == 0 {
			queue <- p.stages[i]
			pending++
		}
	}
	settle := func() {
		pending--
		if pending == 0 {
			close(queue)
		}
	}

	// finishStage mirrors RunCtx's finish at stage granularity: a fatal
	// failure releases nothing and cancels the in-flight stages ranked above
	// it; otherwise the stage's completion releases newly-ready stages and
	// drops hoisted materialization references.
	finishStage := func(st *planStage, fatalNode int, fatalErr error) {
		mu.Lock()
		defer mu.Unlock()
		front.end(st.nodes[0].id)
		defer settle()
		if fatalErr != nil {
			front.fail(fatalNode, fatalErr)
			return
		}
		for _, mat := range p.mats {
			if mat.stages[st.id] {
				mat.remaining--
				if mat.remaining == 0 {
					mat.info.ReleasedAfterStage = st.id
				}
			}
		}
		for _, sid := range p.succs[st.id] {
			indeg[sid]--
			if indeg[sid] == 0 {
				queue <- p.stages[sid]
				pending++
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(wid int) {
			defer wg.Done()
			for {
				select {
				case <-rctx.Done():
					return
				case st, ok := <-queue:
					if !ok || rctx.Err() != nil {
						return
					}
					lead := st.nodes[0].id
					mu.Lock()
					if front.skip(lead, st.nodes) {
						settle()
						mu.Unlock()
						continue
					}
					sctx := front.begin(rctx, lead, st.nodes)
					mu.Unlock()
					fatalNode, fatalErr := g.execStage(sctx, ctx, st, wid, start, cfg,
						consumers, p, &mu, &spans, &passFailures)
					finishStage(st, fatalNode, fatalErr)
				}
			}
		}(w)
	}
	wg.Wait()
	prewarm.Wait()

	sort.Slice(passFailures, func(i, j int) bool { return passFailures[i].Node < passFailures[j].Node })
	trace := newExecutionTrace(workers, time.Since(start), spans)
	trace.Failures = passFailures
	trace.Plan = p.trace
	g.lastTrace = trace

	if len(front.failures) > 0 {
		id, err := front.first()
		return nil, fmt.Errorf("core: pass %q: %w", g.nodes[id].Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: PerFlowGraph run canceled: %w", err)
	}
	res := newResults(g, trace)
	if len(passFailures) > 0 {
		res.degraded = degradedClosure(passFailures, nodeSuccs, len(g.nodes))
	}
	return res, nil
}

// isFatal mirrors RunCtx's finish: a member failure stops the run unless
// degraded mode absorbs it; run-level cancellation is never absorbed. octx
// is the caller's context (pre-cancel), distinguishing a pass's own
// deadline from the run being torn down.
func isFatal(cfg runConfig, octx context.Context, err error) bool {
	return !cfg.continueOnFailure || errors.Is(err, context.Canceled) ||
		(errors.Is(err, context.DeadlineExceeded) && octx.Err() != nil)
}

// execStage runs one compiled stage on worker wid. Members execute in
// order; a degraded member substitutes fallback outputs and the stage
// continues, exactly like the classic scheduler. The returned fatal pair is
// non-zero when the run must stop.
func (g *PerFlowGraph) execStage(rctx, octx context.Context, st *planStage, wid int,
	start time.Time, cfg runConfig, consumers map[portKey]int, p *execPlan,
	mu *sync.Mutex, spans *[]PassSpan, passFailures *[]PassFailure) (int, error) {

	if st.kind == "scan" {
		return g.execScanStage(rctx, octx, st, wid, start, cfg, consumers, mu, spans, passFailures)
	}

	degrade := func(n *PNode, err error, in []*Set) {
		mu.Lock()
		*passFailures = append(*passFailures, PassFailure{
			Node: n.id, Pass: n.Name(), Reason: failureReason(err), Err: err.Error(),
		})
		mu.Unlock()
		n.outputs = g.fallbackFor(n, consumers, in)
		n.done = true
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
			if s != nil && consumers[portKey{ref.node.id, ref.port}] > 1 &&
				p.stageOf[ref.node.id] != st.id {
				// Copy-on-fan-out for cross-stage consumers; in-stage
				// consumers are pure by construction, so the clone is elided.
				s = s.Clone()
			}
			in[i] = s
		}
		if inputErr != nil {
			if isFatal(cfg, octx, inputErr) {
				return n.id, inputErr
			}
			degrade(n, inputErr, nil)
			continue
		}

		t0 := time.Since(start)
		out, err := runPassBounded(rctx, cfg.passTimeout, n.pass, in)
		t1 := time.Since(start)

		span := PassSpan{
			Node: n.id, Pass: n.Name(), Worker: wid,
			Start: t0, End: t1,
			InSizes: setSizes(in), OutSizes: setSizes(out),
		}
		if err != nil {
			span.Err = err.Error()
		}
		mu.Lock()
		*spans = append(*spans, span)
		mu.Unlock()

		if err != nil {
			if isFatal(cfg, octx, err) {
				return n.id, err
			}
			degrade(n, err, in)
			continue
		}
		n.outputs = out
		n.done = true
	}
	return -1, nil
}

// execScanStage runs a fused scan stage: one sweep over the shared input
// set drives every member's kernel. A panicking kernel is isolated to its
// own PassFailure — survivors restart with fresh kernels (kernels are
// deterministic functions of their declared reads, so the rerun reproduces
// the same annotations and outputs).
func (g *PerFlowGraph) execScanStage(rctx, octx context.Context, st *planStage, wid int,
	start time.Time, cfg runConfig, consumers map[portKey]int,
	mu *sync.Mutex, spans *[]PassSpan, passFailures *[]PassFailure) (int, error) {

	ref := st.nodes[0].inputs[0]
	if ref.port >= len(ref.node.outputs) {
		err := fmt.Errorf("input 0 reads missing output port %d of %q", ref.port, ref.node.Name())
		if isFatal(cfg, octx, err) {
			return st.nodes[0].id, err
		}
		for _, n := range st.nodes {
			mu.Lock()
			*passFailures = append(*passFailures, PassFailure{
				Node: n.id, Pass: n.Name(), Reason: FailureError, Err: err.Error(),
			})
			mu.Unlock()
			n.outputs = g.fallbackFor(n, consumers, nil)
			n.done = true
		}
		return -1, nil
	}
	// The group covers every consumer of this port and every member is
	// pure, so all kernels read the producer's set directly — the fan-out
	// clones the classic scheduler would make are elided.
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

	record := func(m *member, t0, t1 time.Duration, err error) {
		span := PassSpan{
			Node: m.n.id, Pass: m.n.Name(), Worker: wid,
			Start: t0, End: t1,
			InSizes: setSizes(inSlice), OutSizes: setSizes(m.out),
		}
		if err != nil {
			span.Err = err.Error()
		}
		mu.Lock()
		*spans = append(*spans, span)
		mu.Unlock()
	}

	active := members
	t0 := time.Since(start)
	for len(active) > 0 {
		cur := 0
		panicked := false
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 8<<10)
					buf = buf[:runtime.Stack(buf, false)]
					panicked = true
					err = &PassPanicError{Pass: active[cur].n.Name(), Value: r, Stack: string(buf)}
				}
			}()
			for j, m := range active {
				cur = j
				m.kern = m.info.Scan(in)
			}
			if in != nil {
				for i, vid := range in.V {
					if i&1023 == 0 && rctx.Err() != nil {
						return rctx.Err()
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
		if isFatal(cfg, octx, err) {
			return bad.n.id, err
		}
		record(bad, t0, time.Since(start), err)
		mu.Lock()
		*passFailures = append(*passFailures, PassFailure{
			Node: bad.n.id, Pass: bad.n.Name(), Reason: failureReason(err), Err: err.Error(),
		})
		mu.Unlock()
		bad.n.outputs = g.fallbackFor(bad.n, consumers, inSlice)
		bad.n.done = true
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
		t0 = time.Since(start)
	}

	t1 := time.Since(start)
	for _, m := range active {
		if m.err != nil {
			record(m, t0, t1, m.err)
			if isFatal(cfg, octx, m.err) {
				return m.n.id, m.err
			}
			mu.Lock()
			*passFailures = append(*passFailures, PassFailure{
				Node: m.n.id, Pass: m.n.Name(), Reason: failureReason(m.err), Err: m.err.Error(),
			})
			mu.Unlock()
			m.n.outputs = g.fallbackFor(m.n, consumers, inSlice)
			m.n.done = true
			continue
		}
		record(m, t0, t1, nil)
		m.n.outputs = m.out
		m.n.done = true
	}
	return -1, nil
}
