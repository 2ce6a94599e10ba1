package lint

import (
	"sort"

	"perflow/internal/ir"
)

func init() {
	Register(Analyzer{
		Name: "collective-divergence", Code: "PF020", Severity: SevWarning,
		Doc: "a collective must be reached the same number of times by every rank",
		Run: runDivergence,
	})
	Register(Analyzer{
		Name: "trivial-loop", Code: "PF021", Severity: SevWarning,
		Doc: "loops should execute and contain effectful work",
		Run: runTrivialLoops,
	})
	Register(Analyzer{
		Name: "unreachable-func", Code: "PF022", Severity: SevInfo,
		Doc: "functions should be reachable from the entry through the static call graph",
		Run: runReachability,
	})
}

// runDivergence (PF020): a collective reached under a rank-dependent
// branch — or inside a loop with rank-dependent trip counts — executes a
// different number of times on different ranks, which hangs real MPI.
// Per-rank reach counts come from the static walk's multiplicities.
func runDivergence(ps *Pass) {
	reportAtEverySize(ps, func(size int) map[diagKey]Diagnostic { return divergenceFindings(ps, size) })
}

// divergenceFindings computes the collective-divergence findings at one
// communicator size, once per Run. PF020 intersects them across the
// default sizes; the symbolic PF032 probes them at witness sizes beyond
// the enumerated set.
func divergenceFindings(ps *Pass, size int) map[diagKey]Diagnostic {
	return perSize(&ps.cache.divergence, size, func() map[diagKey]Diagnostic { return collectiveReach(ps, size) })
}

func collectiveReach(ps *Pass, size int) map[diagKey]Diagnostic {
	type reach struct {
		first   commOp
		byRank  map[int]float64
		minR    int
		unequal bool
	}
	coll := map[ir.NodeID]*reach{}
	for r := 0; r < size; r++ {
		for _, o := range ps.Comms(r, size) {
			if !o.node.Op.IsCollective() {
				continue
			}
			id := ir.InfoOf(o.node).ID()
			rc := coll[id]
			if rc == nil {
				rc = &reach{first: o, byRank: map[int]float64{}, minR: r}
				coll[id] = rc
			}
			rc.byRank[r] += o.mult
		}
	}
	m := map[diagKey]Diagnostic{}
	for id, rc := range coll {
		var ref float64
		for _, c := range rc.byRank {
			ref = c
			break
		}
		for _, c := range rc.byRank {
			if !closeEnough(c, ref) {
				rc.unequal = true
				break
			}
		}
		switch {
		case len(rc.byRank) < size:
			d := ps.diag(rc.first.node, rc.first.fn,
				"collective %s is reached by %d of %d ranks (divergent control flow would hang the others)",
				rc.first.node.Op, len(rc.byRank), size)
			m[diagKey{node: id}] = d
		case rc.unequal:
			d := ps.diag(rc.first.node, rc.first.fn,
				"collective %s executes a different number of times on different ranks", rc.first.node.Op)
			m[diagKey{node: id}] = d
		}
	}
	return m
}

// runTrivialLoops (PF021): a loop whose trip count is never positive — for
// any rank at any modeled size — never executes, and a loop whose body
// contains no compute, communication, call, kernel, lock, or allocator
// node costs nothing; both usually indicate a modeling mistake (a trip
// expression zeroed by a factor, or a body that was never filled in).
func runTrivialLoops(ps *Pass) {
	prog := ps.Prog
	for _, f := range prog.Functions {
		fn := f.Name
		var walkNodes func(ns []ir.Node)
		walkNodes = func(ns []ir.Node) {
			for _, n := range ns {
				l, ok := n.(*ir.Loop)
				if !ok {
					walkNodes(n.Children())
					continue
				}
				switch {
				case neverTrips(ps, l):
					ps.Report(ps.diag(l, fn,
						"loop %q never executes: trip count is not positive for any rank", l.Name))
				case !hasEffect(l.Body):
					ps.Report(ps.diag(l, fn,
						"loop %q has no effect: the body contains no compute, communication, or calls", l.Name))
				}
				walkNodes(l.Body)
			}
		}
		walkNodes(f.Body)
	}
}

func neverTrips(ps *Pass, l *ir.Loop) bool {
	for _, size := range ps.Sizes() {
		for r := 0; r < size; r++ {
			if l.Trips.Value(r, size) > 0 {
				return false
			}
		}
	}
	return true
}

func hasEffect(ns []ir.Node) bool {
	for _, n := range ns {
		switch n.(type) {
		case *ir.Compute, *ir.Comm, *ir.Call, *ir.Kernel, *ir.DeviceSync,
			*ir.Mutex, *ir.Alloc, *ir.Parallel:
			return true
		}
		if hasEffect(n.Children()) {
			return true
		}
	}
	return false
}

// runReachability (PF022): functions no chain of direct calls reaches from
// the entry are dead in the model. Info severity — module scaffolding is
// often deliberately unreferenced — and skipped entirely when the program
// has indirect calls, since those may reach anything at runtime.
func runReachability(ps *Pass) {
	prog := ps.Prog
	hasIndirect := false
	prog.Walk(func(n, _ ir.Node) {
		if c, ok := n.(*ir.Call); ok && c.Indirect {
			hasIndirect = true
		}
	})
	if hasIndirect {
		return
	}
	entry := prog.Function(prog.Entry)
	if entry == nil {
		return
	}
	reached := map[string]bool{entry.Name: true}
	queue := []*ir.Function{entry}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		var visit func(ns []ir.Node)
		visit = func(ns []ir.Node) {
			for _, n := range ns {
				if c, ok := n.(*ir.Call); ok && !c.External && !c.Indirect && !reached[c.Callee] {
					if callee := prog.Function(c.Callee); callee != nil {
						reached[c.Callee] = true
						queue = append(queue, callee)
					}
				}
				visit(n.Children())
			}
		}
		visit(f.Body)
	}
	var dead []*ir.Function
	for _, f := range prog.Functions {
		if !reached[f.Name] {
			dead = append(dead, f)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Name < dead[j].Name })
	for _, f := range dead {
		ps.Report(ps.diag(f, f.Name,
			"function %q is unreachable from entry %q", f.Name, prog.Entry))
	}
}
