package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Pass is one analysis sub-task: it consumes input sets and produces output
// sets (paper §4.2). Built-in passes live in passes.go; user-defined passes
// implement this interface (or wrap a function with PassFunc).
//
// Concurrency contract: the scheduler may run independent passes in
// parallel goroutines. A pass must treat its input sets as immutable — it
// may read them freely but must not modify V/E in place (Clone first, as
// the built-ins do). Passes that annotate vertices of a shared environment
// (SetMetric/SetAttr) are safe only when no concurrently-runnable sibling
// touches the same vertices; wire such passes into a dependency chain when
// in doubt.
type Pass interface {
	// Name identifies the pass in reports and errors.
	Name() string
	// Arity returns the number of input sets the pass expects; -1 accepts
	// any number.
	Arity() int
	// Run performs the sub-task.
	Run(in []*Set) ([]*Set, error)
}

// ContextPass is an optional extension of Pass: passes implementing it
// receive the run's context and can honor cancellation and deadlines
// mid-pass. The engine prefers RunContext over Run when available.
type ContextPass interface {
	Pass
	RunContext(ctx context.Context, in []*Set) ([]*Set, error)
}

// PassFunc adapts a function to the Pass interface.
type PassFunc struct {
	PassName string
	NumIn    int // -1 = variadic
	Fn       func(in []*Set) ([]*Set, error)
}

// Name returns the pass name.
func (p PassFunc) Name() string { return p.PassName }

// Arity returns the declared input count.
func (p PassFunc) Arity() int { return p.NumIn }

// Run invokes the wrapped function.
func (p PassFunc) Run(in []*Set) ([]*Set, error) { return p.Fn(in) }

// CtxPassFunc adapts a context-aware function to the ContextPass interface.
type CtxPassFunc struct {
	PassName string
	NumIn    int // -1 = variadic
	Fn       func(ctx context.Context, in []*Set) ([]*Set, error)
}

// Name returns the pass name.
func (p CtxPassFunc) Name() string { return p.PassName }

// Arity returns the declared input count.
func (p CtxPassFunc) Arity() int { return p.NumIn }

// Run invokes the wrapped function with a background context.
func (p CtxPassFunc) Run(in []*Set) ([]*Set, error) { return p.Fn(context.Background(), in) }

// RunContext invokes the wrapped function.
func (p CtxPassFunc) RunContext(ctx context.Context, in []*Set) ([]*Set, error) {
	return p.Fn(ctx, in)
}

// PNode is a vertex of a PerFlowGraph: a pass plus its wiring.
type PNode struct {
	id   int
	pass Pass
	// inputs[i] identifies the producer of the node's i-th input.
	inputs []portRef
	// after lists pure ordering dependencies (no data flows along them).
	after []*PNode
	// seeded inputs provided directly (source nodes).
	seed []*Set

	outputs []*Set // one set per output port, filled during Run
}

type portRef struct {
	node *PNode
	port int
}

// Name returns the underlying pass name.
func (n *PNode) Name() string { return n.pass.Name() }

// PerFlowGraph is the dataflow graph of a performance analysis task
// (paper §4.1): vertices are passes, edges carry sets. A graph may be run
// repeatedly, but a single graph must not be run from multiple goroutines
// at once.
type PerFlowGraph struct {
	nodes     []*PNode
	lastTrace *ExecutionTrace
}

// NewPerFlowGraph returns an empty dataflow graph.
func NewPerFlowGraph() *PerFlowGraph { return &PerFlowGraph{} }

// AddPass adds a pass vertex.
func (g *PerFlowGraph) AddPass(p Pass) *PNode {
	n := &PNode{id: len(g.nodes), pass: p}
	g.nodes = append(g.nodes, n)
	return n
}

// AddSource adds a source vertex that emits the given sets as its outputs.
func (g *PerFlowGraph) AddSource(name string, sets ...*Set) *PNode {
	n := g.AddPass(PassFunc{
		PassName: name,
		NumIn:    0,
		Fn:       func([]*Set) ([]*Set, error) { return sets, nil },
	})
	n.seed = sets
	return n
}

// Connect wires output port fromPort of from into input port toPort of to.
// Each input port must be assigned exactly once; wiring an already-wired
// port is rejected with an error rather than silently overwriting the
// previous producer.
func (g *PerFlowGraph) Connect(from *PNode, fromPort int, to *PNode, toPort int) error {
	if from == nil || to == nil {
		return fmt.Errorf("core: Connect with nil node")
	}
	if fromPort < 0 || toPort < 0 {
		return fmt.Errorf("core: Connect with negative port (%d -> %d)", fromPort, toPort)
	}
	for len(to.inputs) <= toPort {
		to.inputs = append(to.inputs, portRef{})
	}
	if prev := to.inputs[toPort].node; prev != nil {
		return fmt.Errorf("core: pass %q input %d is already wired to %q; input ports cannot be rewired",
			to.Name(), toPort, prev.Name())
	}
	to.inputs[toPort] = portRef{node: from, port: fromPort}
	return nil
}

// Pipe is shorthand for Connect(from, 0, to, 0).
func (g *PerFlowGraph) Pipe(from, to *PNode) error { return g.Connect(from, 0, to, 0) }

// Chain adds the passes as a port-0 pipeline hanging off src — each pass
// becomes a new node whose input 0 is the previous node's output 0 — and
// returns the last node added (src itself when no passes are given). It is
// the one-call form of the AddPass/Pipe sequences that dominate paradigm
// construction:
//
//	hot := g.Chain(src, FilterPass("MPI_*"), HotspotPass(m, 10))
func (g *PerFlowGraph) Chain(src *PNode, passes ...Pass) *PNode {
	cur := src
	for _, p := range passes {
		n := g.AddPass(p)
		// Freshly added nodes have no wired inputs, so Connect cannot fail.
		_ = g.Connect(cur, 0, n, 0)
		cur = n
	}
	return cur
}

// After adds pure ordering edges: n runs only once every dep has completed,
// though no data flows between them. Use it to serialize an annotation pass
// (one that writes vertex metrics/attributes of a shared environment)
// against a sibling that reads the same vertices — the escape hatch the
// concurrent scheduler's immutability contract calls for. Returns n.
func (g *PerFlowGraph) After(n *PNode, deps ...*PNode) *PNode {
	for _, d := range deps {
		if d != nil && d != n {
			n.after = append(n.after, d)
		}
	}
	return n
}

// runConfig carries per-run scheduler settings.
type runConfig struct {
	maxWorkers        int
	passTimeout       time.Duration
	continueOnFailure bool
	noPlan            bool
}

// RunOption customizes one RunCtx invocation.
type RunOption func(*runConfig)

// WithMaxWorkers bounds the scheduler's worker pool. Values <= 0 fall back
// to the default, GOMAXPROCS.
func WithMaxWorkers(n int) RunOption {
	return func(c *runConfig) { c.maxWorkers = n }
}

// WithPassTimeout bounds each individual pass execution. A pass exceeding
// the limit fails with a *PassTimeoutError; context-aware passes
// (ContextPass) are interrupted via their context, while plain passes are
// abandoned — their goroutine may keep running in the background, so the
// limit is a liveness guarantee for the graph, not a resource bound on a
// runaway pass. Values <= 0 disable the limit.
func WithPassTimeout(d time.Duration) RunOption {
	return func(c *runConfig) { c.passTimeout = d }
}

// WithContinueOnFailure switches the scheduler into degraded mode: a
// failing pass (error, panic, or timeout) no longer cancels the run.
// Instead it yields empty sets on every consumed output port, a
// PassFailure is recorded in the ExecutionTrace, downstream passes still
// run, and Results.Degraded flags every node whose inputs transitively
// include a failed pass. Cancellation of the run's own context still
// aborts everything.
func WithContinueOnFailure() RunOption {
	return func(c *runConfig) { c.continueOnFailure = true }
}

// WithPlanning toggles pass fusion in the pass-plan compiler (default on).
// Every run executes a compiled stage plan. With fusion on, sibling scan
// passes fuse into one traversal, pure chains collapse into one stage,
// shared structure artifacts are hoisted and refcounted, and
// ExecutionTrace.Plan records every decision. WithPlanning(false) turns
// fusion off in the same executor: every pass gets its own stage, the
// stage DAG is the node DAG, nothing is hoisted and no decision record is
// kept (the pflow -noplan flag). Results are byte-identical either way.
func WithPlanning(on bool) RunOption {
	return func(c *runConfig) { c.noPlan = !on }
}

// PassPanicError is the failure recorded when a pass panics: the scheduler
// converts the panic into an error so one buggy pass cannot take down the
// whole process (or, in degraded mode, the rest of the graph).
type PassPanicError struct {
	Pass  string
	Value any    // the recovered panic value
	Stack string // the panicking goroutine's stack
}

func (e *PassPanicError) Error() string {
	return fmt.Sprintf("pass %q panicked: %v", e.Pass, e.Value)
}

// PassTimeoutError is the failure recorded when a pass exceeds the
// WithPassTimeout limit.
type PassTimeoutError struct {
	Pass  string
	Limit time.Duration
}

func (e *PassTimeoutError) Error() string {
	return fmt.Sprintf("pass %q timed out after %s", e.Pass, e.Limit)
}

// Run executes the dataflow graph with a background context. See RunCtx.
func (g *PerFlowGraph) Run(opts ...RunOption) (*Results, error) {
	return g.RunCtx(context.Background(), opts...)
}

// portKey identifies one output port of one node.
type portKey struct {
	node int
	port int
}

// RunCtx executes the dataflow graph under ctx: the graph is validated up
// front (unbound inputs, arity mismatches and cycles are rejected via
// Kahn's algorithm before any pass runs) and compiled into a stage plan
// (see WithPlanning), then stages fire the moment all their inputs
// resolve, on a worker pool bounded by GOMAXPROCS (override with
// WithMaxWorkers). Independent branches run in parallel goroutines.
//
// Cancellation of ctx stops the run: no new pass starts, context-aware
// passes (ContextPass) are interrupted, and all in-flight passes drain
// before RunCtx returns. A pass failure likewise cancels the work added
// after the failing node; passes added before it still run, so when several
// passes fail the reported error is deterministic whatever the timing (the
// failing node added earliest wins).
//
// When one output port feeds several consumers in other stages, each
// consumer receives its own shallow copy of the set (shared environment,
// private V/E slices), so an in-place-mutating consumer cannot corrupt its
// siblings' inputs.
func (g *PerFlowGraph) RunCtx(ctx context.Context, opts ...RunOption) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	workers := cfg.maxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := len(g.nodes)
	if workers > total {
		workers = total
	}

	d, err := g.validate()
	if err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		n.outputs = nil
	}
	g.lastTrace = nil
	if total == 0 {
		tr := &ExecutionTrace{}
		g.lastTrace = tr
		return newResults(g, tr), nil
	}

	p := g.buildPlan(cfg, d)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := &planRun{g: g, dag: d, p: p, cfg: cfg, octx: ctx, start: time.Now(),
		spans: make([]PassSpan, 0, total)}
	var (
		queue   = make(chan *planStage, len(p.stages)) // never blocks: each stage enqueued once
		pending int                                    // stages enqueued and not yet settled
		front   = newFailFront(g, d.order, p.stages, workers)
		indeg   = append([]int(nil), p.indeg...)
	)

	// Hoisted materializations build concurrently with the earliest stages;
	// consumers block (inside the materials' sync.Once) only if they arrive
	// before their artifact is ready.
	var prewarm sync.WaitGroup
	for _, mat := range p.mats {
		prewarm.Add(1)
		go func(mt *planMat) {
			defer prewarm.Done()
			reused := mt.m.prewarm(mt.kind)
			r.mu.Lock()
			mt.info.Reused = reused
			r.mu.Unlock()
		}(mat)
	}

	for i, deg := range indeg {
		if deg == 0 {
			queue <- p.stages[i]
			pending++
		}
	}
	// settle retires one enqueued stage; the last one closes the queue.
	settle := func() {
		pending--
		if pending == 0 {
			close(queue)
		}
	}

	// finish records one stage's outcome. A fatal failure releases nothing
	// and cancels the in-flight stages ranked above it (see failFront);
	// otherwise the stage's completion releases newly-ready stages and drops
	// hoisted materialization references.
	finish := func(st *planStage, fatalNode int, fatalErr error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		front.end(st)
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
					r.mu.Lock()
					if front.skip(st) {
						settle()
						r.mu.Unlock()
						continue
					}
					sctx := front.begin(rctx, st)
					r.mu.Unlock()
					fatalNode, fatalErr := r.execStage(sctx, st, wid)
					finish(st, fatalNode, fatalErr)
				}
			}
		}(w)
	}
	wg.Wait()
	prewarm.Wait()

	sort.Slice(r.failures, func(i, j int) bool { return r.failures[i].Node < r.failures[j].Node })
	trace := newExecutionTrace(workers, time.Since(r.start), r.spans)
	trace.Failures = r.failures
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
	if len(r.failures) > 0 {
		res.degraded = degradedClosure(r.failures, d.succs, len(g.nodes))
	}
	return res, nil
}

// failureReason classifies a degraded-mode failure for the PassFailure
// record.
func failureReason(err error) string {
	var pe *PassPanicError
	var te *PassTimeoutError
	switch {
	case errors.As(err, &pe):
		return FailurePanic
	case errors.As(err, &te):
		return FailureTimeout
	default:
		return FailureError
	}
}

// degradedClosure marks every node reachable from a failed node: its
// outputs were computed from substituted (empty) inputs and must be
// treated as incomplete.
func degradedClosure(failures []PassFailure, succs [][]int, n int) []bool {
	degraded := make([]bool, n)
	stack := make([]int, 0, len(failures))
	for _, f := range failures {
		if !degraded[f.Node] {
			degraded[f.Node] = true
			stack = append(stack, f.Node)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs[id] {
			if !degraded[s] {
				degraded[s] = true
				stack = append(stack, s)
			}
		}
	}
	return degraded
}

// fallbackFor builds a failed node's degraded-mode substitute outputs: one
// empty set per consumed output port, over the environment of the first
// available input, so downstream passes receive well-formed (empty) data.
func (g *PerFlowGraph) fallbackFor(n *PNode, consumers map[portKey]int, in []*Set) []*Set {
	ports := 1
	for k := range consumers {
		if k.node == n.id && k.port+1 > ports {
			ports = k.port + 1
		}
	}
	fb := make([]*Set, ports)
	for i := range fb {
		fb[i] = &Set{}
		for _, s := range in {
			if s != nil && s.PAG != nil {
				fb[i].PAG = s.PAG
				break
			}
		}
	}
	return fb
}

// runPassBounded enforces the per-pass timeout around runPass. Without a
// limit the pass runs inline; with one it runs in a child goroutine so a
// stuck non-context pass cannot wedge the worker — the goroutine is
// abandoned on timeout (its eventual send lands in a buffered channel).
func runPassBounded(ctx context.Context, limit time.Duration, p Pass, in []*Set) ([]*Set, error) {
	if limit <= 0 {
		return runPass(ctx, p, in)
	}
	tctx, tcancel := context.WithTimeout(ctx, limit)
	defer tcancel()
	type result struct {
		out []*Set
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := runPass(tctx, p, in)
		ch <- result{out, err}
	}()
	timedOut := func(err error) bool {
		// The pass limit fired and the run itself was not canceled: report
		// it as a pass timeout, not as run cancellation fallout.
		return errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
	}
	select {
	case r := <-ch:
		if r.err != nil && timedOut(r.err) {
			return nil, &PassTimeoutError{Pass: p.Name(), Limit: limit}
		}
		return r.out, r.err
	case <-tctx.Done():
		if timedOut(tctx.Err()) {
			return nil, &PassTimeoutError{Pass: p.Name(), Limit: limit}
		}
		return nil, tctx.Err()
	}
}

// runPass dispatches to the context-aware entry point when available. A
// panicking pass is converted into a *PassPanicError instead of unwinding
// the scheduler: analysis passes run user code, and one bug must not take
// down the engine (or, server-side, the process).
func runPass(ctx context.Context, p Pass, in []*Set) (out []*Set, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8<<10)
			buf = buf[:runtime.Stack(buf, false)]
			out = nil
			err = &PassPanicError{Pass: p.Name(), Value: r, Stack: string(buf)}
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cp, ok := p.(ContextPass); ok {
		return cp.RunContext(ctx, in)
	}
	return p.Run(in)
}

// failFront makes fail-fast deterministic. Every node has a rank: its id,
// raised to the rank of its latest predecessor, so ranks follow the order
// nodes were added and never decrease along an edge; a stage ranks as its
// earliest member. Once a node fails fatally, stages ranked above it are
// skipped or canceled, while stages ranked at or below it still run: one of
// them may fail too and then takes precedence. The reported error is
// therefore the one a sequential run in rank order would hit, whatever the
// timing. Methods are called under the run mutex.
type failFront struct {
	g        *PerFlowGraph
	order    []int // topological node order, for the rank table
	stages   []*planStage
	rank     []int                // node ranks, built at the first fatal failure
	min      int                  // rank of the earliest fatal failure; -1 while none
	failures map[int]error        // fatal errors by node id
	cancel   []context.CancelFunc // running stages' cancel funcs by stage id; nil with one worker
}

func newFailFront(g *PerFlowGraph, order []int, stages []*planStage, workers int) *failFront {
	f := &failFront{g: g, order: order, stages: stages, min: -1, failures: map[int]error{}}
	if workers > 1 {
		f.cancel = make([]context.CancelFunc, len(stages))
	}
	return f
}

// rankOf returns a node's rank, building the rank table on first use.
func (f *failFront) rankOf(id int) int {
	if f.rank == nil {
		f.rank = make([]int, len(f.g.nodes))
		for _, i := range f.order {
			n, r := f.g.nodes[i], i
			for _, ref := range n.inputs {
				r = max(r, f.rank[ref.node.id])
			}
			for _, d := range n.after {
				r = max(r, f.rank[d.id])
			}
			f.rank[i] = r
		}
	}
	return f.rank[id]
}

// stageRank ranks a stage by its earliest member.
func (f *failFront) stageRank(st *planStage) int {
	r := len(f.g.nodes)
	for _, n := range st.nodes {
		r = min(r, f.rankOf(n.id))
	}
	return r
}

// skip reports whether a stage about to start can no longer affect the
// reported error.
func (f *failFront) skip(st *planStage) bool {
	return f.min >= 0 && f.stageRank(st) > f.min
}

// begin registers a starting stage and returns the context it runs under.
// With one worker no sibling is ever in flight, so the run context serves.
func (f *failFront) begin(ctx context.Context, st *planStage) context.Context {
	if f.cancel == nil {
		return ctx
	}
	sctx, cancel := context.WithCancel(ctx)
	f.cancel[st.id] = cancel
	return sctx
}

// end deregisters a finished stage and releases its context.
func (f *failFront) end(st *planStage) {
	if f.cancel != nil && f.cancel[st.id] != nil {
		f.cancel[st.id]()
		f.cancel[st.id] = nil
	}
}

// fail records a fatal failure of node id and cancels the in-flight stages
// ranked above it.
func (f *failFront) fail(id int, err error) {
	f.failures[id] = err
	r := f.rankOf(id)
	if f.min >= 0 && r >= f.min {
		return
	}
	f.min = r
	for sid, cancel := range f.cancel {
		if cancel != nil && f.stageRank(f.stages[sid]) > r {
			cancel()
		}
	}
}

// first picks the reported error: the lowest-ranked failing node wins (ties
// go to the earlier-added node), and genuine pass failures take precedence
// over cancellation fallout from siblings.
func (f *failFront) first() (int, error) {
	before := func(a, b int) bool {
		if ra, rb := f.rankOf(a), f.rankOf(b); ra != rb {
			return ra < rb
		}
		return a < b
	}
	bestID, bestAny := -1, -1
	for id, err := range f.failures {
		if bestAny < 0 || before(id, bestAny) {
			bestAny = id
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			continue
		}
		if bestID < 0 || before(id, bestID) {
			bestID = id
		}
	}
	if bestID < 0 {
		bestID = bestAny
	}
	return bestID, f.failures[bestID]
}

func setSizes(sets []*Set) []int {
	if len(sets) == 0 {
		return nil
	}
	out := make([]int, len(sets))
	for i, s := range sets {
		if s != nil {
			out[i] = s.Len()
		}
	}
	return out
}

// nodeDAG is the shape of a validated graph, as the planner and the
// executor need it.
type nodeDAG struct {
	order     []int           // topological order, ready nodes taken in ascending id
	succs     [][]int         // successors over data and ordering edges
	indeg     []int           // in-degrees over the same edges
	consumers map[portKey]int // consumer count per output port
}

// validate checks the graph shape before any pass runs: every input port
// must be bound, declared arities must match the wiring, and the graph must
// be acyclic (Kahn's algorithm).
func (g *PerFlowGraph) validate() (*nodeDAG, error) {
	total := len(g.nodes)
	d := &nodeDAG{succs: make([][]int, total), indeg: make([]int, total), consumers: map[portKey]int{}}
	for _, n := range g.nodes {
		if want := n.pass.Arity(); want >= 0 && len(n.inputs) != want {
			return nil, fmt.Errorf("core: pass %q expects %d inputs, got %d",
				n.Name(), want, len(n.inputs))
		}
		for i, ref := range n.inputs {
			if ref.node == nil {
				return nil, fmt.Errorf("core: pass %q input %d is unconnected", n.Name(), i)
			}
			d.succs[ref.node.id] = append(d.succs[ref.node.id], n.id)
			d.indeg[n.id]++
			d.consumers[portKey{ref.node.id, ref.port}]++
		}
		for _, dep := range n.after {
			d.succs[dep.id] = append(d.succs[dep.id], n.id)
			d.indeg[n.id]++
		}
	}
	// Kahn's algorithm on a scratch copy, taking ready nodes in ascending id
	// so the order is deterministic: any node never reaching in-degree zero
	// sits on a cycle.
	deg := append([]int(nil), d.indeg...)
	var ready []int
	for id, dg := range deg {
		if dg == 0 {
			ready = append(ready, id)
		}
	}
	d.order = make([]int, 0, total)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		d.order = append(d.order, id)
		for _, s := range d.succs[id] {
			deg[s]--
			if deg[s] == 0 {
				i, _ := slices.BinarySearch(ready, s)
				ready = slices.Insert(ready, i, s)
			}
		}
	}
	if len(d.order) != total {
		var cyc []string
		for id, dg := range deg {
			if dg > 0 {
				cyc = append(cyc, g.nodes[id].Name())
			}
		}
		return nil, fmt.Errorf("core: PerFlowGraph has a cycle involving: %s",
			strings.Join(cyc, ", "))
	}
	return d, nil
}

// Trace returns the instrumentation record of the graph's most recent run
// (nil before the first run). The trace is also carried on the Results.
func (g *PerFlowGraph) Trace() *ExecutionTrace { return g.lastTrace }

// Outputs returns the sets a node produced during the last Run.
func (n *PNode) Outputs() []*Set { return n.outputs }

// Output returns the node's single output set (port 0), or nil.
func (n *PNode) Output() *Set {
	if len(n.outputs) == 0 {
		return nil
	}
	return n.outputs[0]
}
