package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	done    bool
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

// WithPlanning toggles the pass-plan compiler (default on). With planning,
// the whole graph is compiled into an execution plan before any pass runs —
// sibling scan passes fuse into one traversal, pure chains collapse into one
// stage, shared structure artifacts are hoisted and refcounted — and
// ExecutionTrace.Plan records every decision. Results are byte-identical
// either way; WithPlanning(false) is the escape hatch that forces the
// classic per-node scheduler (the pflow -noplan flag).
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
// Kahn's algorithm before any pass runs), then passes fire the moment all
// their inputs resolve, on a worker pool bounded by GOMAXPROCS (override
// with WithMaxWorkers). Independent branches run in parallel goroutines.
//
// Cancellation of ctx stops the run: no new pass starts, context-aware
// passes (ContextPass) are interrupted, and all in-flight passes drain
// before RunCtx returns. A pass failure likewise cancels the work added
// after the failing node; passes added before it still run, so when several
// passes fail the reported error is deterministic whatever the timing (the
// failing node added earliest wins).
//
// When one output port feeds several consumers, each consumer receives its
// own shallow copy of the set (shared environment, private V/E slices), so
// an in-place-mutating consumer cannot corrupt its siblings' inputs.
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

	succs, indeg, consumers, err := g.validate()
	if err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		n.done = false
		n.outputs = nil
	}
	g.lastTrace = nil
	if total == 0 {
		tr := &ExecutionTrace{}
		g.lastTrace = tr
		return newResults(g, tr), nil
	}

	if !cfg.noPlan {
		if p := g.buildPlan(cfg, consumers); p != nil {
			return g.runPlanned(ctx, cfg, workers, p, succs, consumers)
		}
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu           sync.Mutex
		queue        = make(chan *PNode, total) // never blocks: each node enqueued once
		pending      int                        // nodes enqueued and not yet settled
		front        = newFailFront(g, workers)
		passFailures []PassFailure // degraded mode: failures that did not stop the run
		spans        = make([]PassSpan, 0, total)
	)
	start := time.Now()
	for id, d := range indeg {
		if d == 0 {
			queue <- g.nodes[id]
			pending++
		}
	}
	// settle retires one enqueued node; the last one closes the queue.
	settle := func() {
		pending--
		if pending == 0 {
			close(queue)
		}
	}

	// finish records one node's outcome and releases newly-ready successors.
	// A fatal failure releases nothing and cancels the in-flight nodes
	// ranked above it (see failFront). In degraded mode a failed node
	// substitutes fallback (empty sets sized to its consumed ports) and the
	// graph keeps going; run-level cancellation is never absorbed.
	finish := func(n *PNode, out []*Set, err error, fallback []*Set) {
		mu.Lock()
		defer mu.Unlock()
		front.end(n.id)
		defer settle()
		if err != nil {
			if !cfg.continueOnFailure || errors.Is(err, context.Canceled) ||
				(errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil) {
				front.fail(n.id, err)
				return
			}
			passFailures = append(passFailures, PassFailure{
				Node: n.id, Pass: n.Name(), Reason: failureReason(err), Err: err.Error(),
			})
			out = fallback
		}
		n.outputs = out
		n.done = true
		for _, sid := range succs[n.id] {
			indeg[sid]--
			if indeg[sid] == 0 {
				queue <- g.nodes[sid]
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
				case n, ok := <-queue:
					if !ok || rctx.Err() != nil {
						return
					}
					mu.Lock()
					if front.skip(n.id, nil) {
						settle()
						mu.Unlock()
						continue
					}
					nctx := front.begin(rctx, n.id, nil)
					mu.Unlock()
					g.execNode(nctx, n, wid, start, cfg, consumers, &mu, &spans, finish)
				}
			}
		}(w)
	}
	wg.Wait()

	sort.Slice(passFailures, func(i, j int) bool { return passFailures[i].Node < passFailures[j].Node })
	trace := newExecutionTrace(workers, time.Since(start), spans)
	trace.Failures = passFailures
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
		res.degraded = degradedClosure(passFailures, succs, len(g.nodes))
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

// execNode gathers n's inputs, runs its pass, records an instrumentation
// span and reports the outcome through finish. Alongside the real outputs
// it prepares the degraded-mode fallback: one empty set per consumed
// output port, over the environment of the first available input, so
// downstream passes of a failed node receive well-formed (empty) data.
func (g *PerFlowGraph) execNode(ctx context.Context, n *PNode, wid int, start time.Time,
	cfg runConfig, consumers map[portKey]int, mu *sync.Mutex, spans *[]PassSpan,
	finish func(*PNode, []*Set, error, []*Set)) {

	fallback := func(in []*Set) []*Set { return g.fallbackFor(n, consumers, in) }

	in := make([]*Set, len(n.inputs))
	for i, ref := range n.inputs {
		// The producer completed before n was enqueued (happens-before via
		// the ready queue), so reading its outputs is race-free.
		if ref.port >= len(ref.node.outputs) {
			finish(n, nil, fmt.Errorf("input %d reads missing output port %d of %q",
				i, ref.port, ref.node.Name()), fallback(nil))
			return
		}
		s := ref.node.outputs[ref.port]
		if s != nil && consumers[portKey{ref.node.id, ref.port}] > 1 {
			s = s.Clone() // copy-on-fan-out: siblings get private V/E slices
		}
		in[i] = s
	}

	t0 := time.Since(start)
	out, err := runPassBounded(ctx, cfg.passTimeout, n.pass, in)
	t1 := time.Since(start)

	span := PassSpan{
		Node:     n.id,
		Pass:     n.Name(),
		Worker:   wid,
		Start:    t0,
		End:      t1,
		InSizes:  setSizes(in),
		OutSizes: setSizes(out),
	}
	if err != nil {
		span.Err = err.Error()
	}
	mu.Lock()
	*spans = append(*spans, span)
	mu.Unlock()

	finish(n, out, err, fallback(in))
}

// fallbackFor builds a failed node's degraded-mode substitute outputs: one
// empty set per consumed output port, over the environment of the first
// available input, so downstream passes receive well-formed (empty) data.
// Shared by the classic scheduler and the planned executor.
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
// nodes were added and never decrease along an edge. Once a node fails
// fatally, units (single nodes, or planned stages ranked by their earliest
// member) ranked above it are skipped or canceled, while units ranked at or
// below it still run: one of them may fail too and then takes precedence.
// The reported error is therefore the one a sequential run in rank order
// would hit, whatever the timing. Methods are called under the run mutex.
type failFront struct {
	g        *PerFlowGraph
	rank     []int          // built at the first fatal failure
	min      int            // rank of the earliest fatal failure; -1 while none
	failures map[int]error  // fatal errors by node id
	inflight []inflightUnit // running units by lead node id; nil with one worker
}

// inflightUnit is one running unit: its cancel func (nil when the slot is
// idle) and, for a planned stage, its members (nil for a single node,
// which is its own lead).
type inflightUnit struct {
	cancel context.CancelFunc
	nodes  []*PNode
}

func newFailFront(g *PerFlowGraph, workers int) *failFront {
	f := &failFront{g: g, min: -1, failures: map[int]error{}}
	if workers > 1 {
		f.inflight = make([]inflightUnit, len(g.nodes))
	}
	return f
}

// rankOf returns a node's rank, building the rank table on first use.
func (f *failFront) rankOf(id int) int {
	if f.rank == nil {
		f.rank = make([]int, len(f.g.nodes))
		for i := range f.rank {
			f.rank[i] = -1
		}
		var visit func(n *PNode) int
		visit = func(n *PNode) int {
			if r := f.rank[n.id]; r >= 0 {
				return r
			}
			r := n.id
			for _, ref := range n.inputs {
				r = max(r, visit(ref.node))
			}
			for _, d := range n.after {
				r = max(r, visit(d))
			}
			f.rank[n.id] = r
			return r
		}
		for _, n := range f.g.nodes {
			visit(n)
		}
	}
	return f.rank[id]
}

// unitRank ranks a unit by its earliest member.
func (f *failFront) unitRank(lead int, nodes []*PNode) int {
	r := f.rankOf(lead)
	for _, n := range nodes {
		r = min(r, f.rankOf(n.id))
	}
	return r
}

// skip reports whether a unit about to start can no longer affect the
// reported error.
func (f *failFront) skip(lead int, nodes []*PNode) bool {
	return f.min >= 0 && f.unitRank(lead, nodes) > f.min
}

// begin registers a starting unit and returns the context it runs under.
// With one worker no sibling is ever in flight, so the run context serves.
func (f *failFront) begin(ctx context.Context, lead int, nodes []*PNode) context.Context {
	if f.inflight == nil {
		return ctx
	}
	uctx, cancel := context.WithCancel(ctx)
	f.inflight[lead] = inflightUnit{cancel: cancel, nodes: nodes}
	return uctx
}

// end deregisters a finished unit and releases its context.
func (f *failFront) end(lead int) {
	if f.inflight != nil && f.inflight[lead].cancel != nil {
		f.inflight[lead].cancel()
		f.inflight[lead] = inflightUnit{}
	}
}

// fail records a fatal failure of node id and cancels the in-flight units
// ranked above it.
func (f *failFront) fail(id int, err error) {
	f.failures[id] = err
	r := f.rankOf(id)
	if f.min >= 0 && r >= f.min {
		return
	}
	f.min = r
	for lead, u := range f.inflight {
		if u.cancel != nil && f.unitRank(lead, u.nodes) > r {
			u.cancel()
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

// validate checks the graph shape before any pass runs: every input port
// must be bound, declared arities must match the wiring, and the graph must
// be acyclic (Kahn's algorithm). It returns the successor lists, in-degree
// counts and per-port consumer counts the scheduler needs.
func (g *PerFlowGraph) validate() (succs [][]int, indeg []int, consumers map[portKey]int, err error) {
	succs = make([][]int, len(g.nodes))
	indeg = make([]int, len(g.nodes))
	consumers = make(map[portKey]int)
	for _, n := range g.nodes {
		if want := n.pass.Arity(); want >= 0 && len(n.inputs) != want {
			return nil, nil, nil, fmt.Errorf("core: pass %q expects %d inputs, got %d",
				n.Name(), want, len(n.inputs))
		}
		for i, ref := range n.inputs {
			if ref.node == nil {
				return nil, nil, nil, fmt.Errorf("core: pass %q input %d is unconnected", n.Name(), i)
			}
			succs[ref.node.id] = append(succs[ref.node.id], n.id)
			indeg[n.id]++
			consumers[portKey{ref.node.id, ref.port}]++
		}
		for _, dep := range n.after {
			succs[dep.id] = append(succs[dep.id], n.id)
			indeg[n.id]++
		}
	}
	// Kahn's algorithm on a scratch copy: any node never reaching in-degree
	// zero sits on a cycle.
	deg := append([]int(nil), indeg...)
	queue := make([]int, 0, len(g.nodes))
	for id, d := range deg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	visited := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		visited++
		for _, s := range succs[id] {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if visited != len(g.nodes) {
		var cyc []string
		for id, d := range deg {
			if d > 0 {
				cyc = append(cyc, g.nodes[id].Name())
			}
		}
		return nil, nil, nil, fmt.Errorf("core: PerFlowGraph has a cycle involving: %s",
			strings.Join(cyc, ", "))
	}
	return succs, indeg, consumers, nil
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
