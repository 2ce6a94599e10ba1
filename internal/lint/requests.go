package lint

import "perflow/internal/ir"

// Request-lifetime analyzers: every Isend/Irecv request must reach an
// MPI_Wait/MPI_Waitall (PF010, error — a leaked request means the
// operation never completes), and a request name must not be reissued
// while its previous operation is still pending (PF011, warning — the
// earlier handle is lost). Tracking is interprocedural: requests routinely
// cross call boundaries (a helper posts the Irecvs, the caller waits), so
// one pending set follows the whole execution order of a rank.
func init() {
	Register(Analyzer{
		Name: "unwaited-request", Code: "PF010", Severity: SevError,
		Doc: "Isend/Irecv requests must be completed by MPI_Wait or MPI_Waitall",
		Run: func(ps *Pass) {
			reportAtEverySize(ps, func(size int) map[diagKey]Diagnostic { return requestFindings(ps, size).unwaited })
		},
	})
	Register(Analyzer{
		Name: "request-reuse", Code: "PF011", Severity: SevWarning,
		Doc: "a request name must not be reissued before its wait",
		Run: func(ps *Pass) {
			reportAtEverySize(ps, func(size int) map[diagKey]Diagnostic { return requestFindings(ps, size).reuse })
		},
	})
}

// requestResult holds the request-lifetime findings at one communicator
// size: requests never completed (PF010) and requests reissued while
// pending (PF011).
type requestResult struct {
	unwaited, reuse map[diagKey]Diagnostic
}

// requestFindings walks every rank's request lifetimes at one
// communicator size, once per Run. PF010/PF011 intersect the findings
// across the default sizes; the symbolic PF031 probes them at witness
// sizes beyond the enumerated set.
func requestFindings(ps *Pass, size int) requestResult {
	return perSize(&ps.cache.requests, size, func() requestResult {
		res := requestResult{unwaited: map[diagKey]Diagnostic{}, reuse: map[diagKey]Diagnostic{}}
		entry := ps.Prog.Function(ps.Prog.Entry)
		for r := 0; r < size; r++ {
			rw := &reqWalker{ps: ps, rank: r, size: size,
				pending: map[string]*ir.Comm{}, onStack: map[string]bool{entry.Name: true}}
			rw.walk(entry.Body, entry.Name)
			for req, node := range rw.pending {
				d := ps.diag(node, rw.issuedIn[node],
					"%s request %q is never completed by MPI_Wait or MPI_Waitall", node.Op, req)
				res.unwaited[diagKey{node: d.Node, extra: req}] = d
			}
			for _, d := range rw.out {
				k := diagKey{node: d.Node, extra: d.Message}
				if _, dup := res.reuse[k]; !dup {
					res.reuse[k] = d
				}
			}
		}
		return res
	})
}

// reqWalker follows one rank's execution order, tracking which request
// names have a pending nonblocking operation. Branches and loops are
// resolved per rank, and recursion is cut at the back edge as in the
// symbolic model; loop bodies are entered once, with a loop-carry check: a
// request issued inside a multi-trip loop and still pending at the body's
// end is reused by the next iteration. The model's flat event stream has
// no loop-instance boundaries, so this walk stays on the IR.
type reqWalker struct {
	ps         *Pass
	rank, size int
	pending    map[string]*ir.Comm
	issuedIn   map[*ir.Comm]string // issuing node -> enclosing function
	onStack    map[string]bool
	out        []Diagnostic // PF011 reuse findings, in walk order
}

func (rw *reqWalker) issue(x *ir.Comm, fn string) {
	if rw.issuedIn == nil {
		rw.issuedIn = map[*ir.Comm]string{}
	}
	rw.pending[x.Req] = x
	rw.issuedIn[x] = fn
}

func (rw *reqWalker) walk(ns []ir.Node, fn string) {
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Comm:
			switch x.Op {
			case ir.CommIsend, ir.CommIrecv:
				if x.Req == "" {
					continue // PF003 reports missing request names
				}
				if prev, live := rw.pending[x.Req]; live {
					d := rw.ps.diag(x, fn,
						"request %q reissued by %s before the pending %s completed", x.Req, x.Op, prev.Op)
					d.Related = append(d.Related, related(prev, "request %q previously issued here", x.Req))
					rw.out = append(rw.out, d)
				}
				rw.issue(x, fn)
			case ir.CommWait:
				delete(rw.pending, x.Req)
			case ir.CommWaitall:
				clear(rw.pending)
			}
		case *ir.Branch:
			if x.Taken.Value(rw.rank, rw.size) != 0 {
				rw.walk(x.Body, fn)
			}
		case *ir.Loop:
			trips := x.Trips.Value(rw.rank, rw.size)
			if trips <= 0 {
				continue
			}
			before := make(map[string]*ir.Comm, len(rw.pending))
			for req, node := range rw.pending {
				before[req] = node
			}
			rw.walk(x.Body, fn)
			if trips > 1 {
				for req, node := range rw.pending {
					if before[req] == node {
						continue // pending from outside the loop, not loop-carried
					}
					d := rw.ps.diag(node, fn,
						"request %q issued inside loop %q is still pending at the end of the body; the next iteration reuses it", req, x.Name)
					rw.out = append(rw.out, d)
				}
			}
		case *ir.Call:
			if x.External || x.Indirect || rw.onStack[x.Callee] {
				continue
			}
			callee := rw.ps.Prog.Function(x.Callee)
			if callee == nil {
				continue
			}
			rw.onStack[x.Callee] = true
			rw.walk(callee.Body, x.Callee)
			rw.onStack[x.Callee] = false
		default:
			rw.walk(n.Children(), fn)
		}
	}
}
