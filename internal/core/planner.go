package core

import (
	"fmt"

	"perflow/internal/pag"
)

// The pass-plan compiler. Before execution, the planner inspects the whole
// PerFlowGraph — pass descriptors, wiring, fan-out — and compiles it into a
// stage plan, GraphIt-style: the graph says WHAT to compute, the plan
// decides HOW. Three families of decisions:
//
//   - Pass fusion. Sibling scan passes consuming the same output port fuse
//     into one shared sweep feeding every kernel ("scan" stages); a pure
//     described pass whose predecessors are all satisfied by one stage is
//     inlined after its producer ("chain" stages), eliding the
//     copy-on-fan-out clone its input would otherwise get. Fusion legality
//     is proven from declared Reads/Writes disjointness — never assumed.
//
//   - Traversal selection. For traversal passes the planner records which
//     concrete strategy the static graph shape selects (cached-CSR topo
//     sweep, in-edge reverse walk, direction-optimizing bitset ancestors)
//     and hoists the artifacts they need.
//
//   - Materialization hoisting. Structure-derived artifacts (frozen CSR,
//     DAG skeleton, LCA ancestor machinery) shared by several stages are
//     prewarmed once, refcounted per consuming stage, and released when the
//     last consumer finishes.
//
// Undescribed passes — user passes, side-effecting passes like report —
// fall back to one single-node stage each. With fusion off
// (WithPlanning(false)) every pass gets such a stage and the stage DAG is
// the node DAG; the executor is the same either way. Reports are
// byte-identical with fusion on or off; the plan only changes scheduling,
// never values.

// planStage is one unit of planned execution: its member nodes run
// sequentially on one worker, in topological order.
type planStage struct {
	id    int
	kind  string // "fallback", "single", "chain", or "scan"
	nodes []*PNode
}

// planMat is one hoisted materialization with run-local refcounting.
type planMat struct {
	m         *materials
	kind      TraversalKind
	stages    map[int]bool // consuming stages
	remaining int          // guarded by the run mutex
	info      *PlanMatInfo // entry in the plan trace, updated in place
}

// execPlan is a compiled PerFlowGraph: the stage partition, the stage DAG,
// hoisted materializations, and the decision record for the trace.
type execPlan struct {
	stages  []*planStage
	stageOf []int   // node id -> stage id
	succs   [][]int // stage DAG: deduplicated, or the node DAG with fusion off
	indeg   []int
	mats    []*planMat
	trace   *PlanTrace // nil with fusion off
}

// buildPlan compiles the validated graph d into an execution plan. The
// plan is deterministic: stages are formed in topological node order with
// ties broken by insertion id.
func (g *PerFlowGraph) buildPlan(cfg runConfig, d *nodeDAG) *execPlan {
	total := len(g.nodes)
	infos := make([]PassInfo, total)
	described := make([]bool, total)
	for _, n := range g.nodes {
		infos[n.id], described[n.id] = passInfo(n.pass)
	}
	soloKind := func(id int) string {
		if described[id] {
			return "single"
		}
		return "fallback"
	}

	if cfg.noPlan {
		// Fusion off: stage i is node i alone, so the stage DAG is the node
		// DAG. Nothing is hoisted and no decision record is kept.
		p := &execPlan{stageOf: make([]int, total), succs: d.succs, indeg: d.indeg}
		for _, n := range g.nodes {
			p.stages = append(p.stages, &planStage{id: n.id, kind: soloKind(n.id), nodes: []*PNode{n}})
			p.stageOf[n.id] = n.id
		}
		return p
	}

	// Predecessors over data and ordering edges.
	preds := make([][]int, total)
	for _, n := range g.nodes {
		for _, ref := range n.inputs {
			preds[n.id] = append(preds[n.id], ref.node.id)
		}
		for _, dep := range n.after {
			preds[n.id] = append(preds[n.id], dep.id)
		}
	}
	// Static environment inference: seeds anchor it, project-style passes
	// override it, environment-deriving passes and undescribed passes
	// erase it.
	envs := make([]*pag.PAG, total)
	for _, id := range d.order {
		n := g.nodes[id]
		switch {
		case len(n.inputs) == 0:
			if len(n.seed) > 0 && n.seed[0] != nil {
				envs[id] = n.seed[0].PAG
			}
		case described[id] && infos[id].Env != nil:
			envs[id] = infos[id].Env
		case described[id] && !infos[id].NewEnv:
			envs[id] = envs[n.inputs[0].node.id]
		}
	}

	// Consumers of each output port, in insertion order, for scan grouping.
	portConsumers := map[portKey][]*PNode{}
	for _, n := range g.nodes {
		for _, ref := range n.inputs {
			pk := portKey{ref.node.id, ref.port}
			portConsumers[pk] = append(portConsumers[pk], n)
		}
	}

	p := &execPlan{stageOf: make([]int, total), trace: &PlanTrace{}}
	for i := range p.stageOf {
		p.stageOf[i] = -1
	}
	var anc [][]uint64 // per stage: bitset of ancestor stages, incl. self

	newStage := func(kind string, members ...*PNode) *planStage {
		st := &planStage{id: len(p.stages), kind: kind, nodes: members}
		bits := make([]uint64, total/64+1)
		bits[st.id>>6] |= 1 << (uint(st.id) & 63)
		for _, n := range members {
			p.stageOf[n.id] = st.id
			for _, pid := range preds[n.id] {
				if sp := p.stageOf[pid]; sp >= 0 && sp != st.id {
					for w := range bits {
						bits[w] |= anc[sp][w]
					}
				}
			}
		}
		p.stages = append(p.stages, st)
		anc = append(anc, bits)
		return st
	}
	isAncestor := func(sp, t int) bool {
		return anc[t][sp>>6]&(1<<(uint(sp)&63)) != 0
	}

	// scanGroup returns the fused scan group v belongs to, or nil.
	scanGroup := func(v *PNode) []*PNode {
		if cfg.passTimeout > 0 {
			// Per-pass timeouts are enforced around whole pass executions;
			// a fused loop cannot bound members individually, so scan fusion
			// is disabled under WithPassTimeout.
			return nil
		}
		if !described[v.id] || !infos[v.id].Pure || infos[v.id].Scan == nil || len(v.inputs) != 1 {
			return nil
		}
		pk := portKey{v.inputs[0].node.id, v.inputs[0].port}
		group := portConsumers[pk]
		if len(group) < 2 {
			return nil
		}
		inGroup := map[int]bool{}
		for _, c := range group {
			inGroup[c.id] = true
		}
		for i, c := range group {
			ci := c.id
			if p.stageOf[ci] != -1 || !described[ci] || !infos[ci].Pure ||
				infos[ci].Scan == nil || len(c.inputs) != 1 {
				return nil
			}
			for _, d := range c.after {
				if !inGroup[d.id] && p.stageOf[d.id] == -1 {
					return nil // ordered after something not yet schedulable
				}
			}
			for _, o := range group[i+1:] {
				if infos[ci].conflictsWith(infos[o.id]) {
					return nil
				}
			}
		}
		return group
	}

	for _, id := range d.order {
		v := g.nodes[id]
		if p.stageOf[id] != -1 {
			continue
		}
		if group := scanGroup(v); group != nil {
			newStage("scan", group...)
			p.trace.FusedPasses += len(group)
			p.trace.ScansFused += len(group) - 1
			continue
		}
		// Chain fusion: inline a pure described pass after its first data
		// input's producer when every other predecessor's stage is already
		// an ancestor of the target — ordering constraints stay satisfied
		// and the stage DAG stays acyclic by construction.
		if described[id] && infos[id].Pure && len(v.inputs) > 0 {
			t := p.stageOf[v.inputs[0].node.id]
			if t >= 0 && p.stages[t].kind != "scan" {
				ok := true
				for _, pid := range preds[id] {
					sp := p.stageOf[pid]
					if sp != t && !isAncestor(sp, t) {
						ok = false
						break
					}
				}
				if ok {
					st := p.stages[t]
					st.nodes = append(st.nodes, v)
					p.stageOf[id] = t
					if len(st.nodes) == 2 {
						p.trace.FusedPasses += 2
						st.kind = "chain"
					} else {
						p.trace.FusedPasses++
					}
					continue
				}
			}
		}
		newStage(soloKind(id), v)
	}

	// Stage DAG: quotient of the node DAG, deduplicated.
	ns := len(p.stages)
	p.succs = make([][]int, ns)
	p.indeg = make([]int, ns)
	seenEdge := map[[2]int]bool{}
	for _, n := range g.nodes {
		for _, pid := range preds[n.id] {
			a, b := p.stageOf[pid], p.stageOf[n.id]
			if a == b || seenEdge[[2]int{a, b}] {
				continue
			}
			seenEdge[[2]int{a, b}] = true
			p.succs[a] = append(p.succs[a], b)
			p.indeg[b]++
		}
	}

	// Clone elision accounting: a pure in-stage consumer reads its
	// producer's set directly even on fan-out ports, and a fused scan group
	// shares the producer's set raw across all members (the group covers
	// every consumer of the port, so nobody else can mutate it).
	for _, n := range g.nodes {
		if !described[n.id] || !infos[n.id].Pure {
			continue
		}
		inScan := p.stages[p.stageOf[n.id]].kind == "scan"
		for _, ref := range n.inputs {
			if (inScan || p.stageOf[ref.node.id] == p.stageOf[n.id]) &&
				d.consumers[portKey{ref.node.id, ref.port}] > 1 {
				p.trace.ClonesElided++
			}
		}
	}

	p.buildDecisionRecord(g, infos, described, envs)
	return p
}

// buildDecisionRecord fills the plan trace: per-stage pass lists with
// traversal decisions, plus the hoisted-materialization table.
func (p *execPlan) buildDecisionRecord(g *PerFlowGraph, infos []PassInfo, described []bool, envs []*pag.PAG) {
	type matID struct {
		env  *pag.PAG
		what string
	}
	matIdx := map[matID]*planMat{}
	for _, st := range p.stages {
		si := PlanStageInfo{Stage: st.id, Kind: st.kind}
		for _, n := range st.nodes {
			si.Nodes = append(si.Nodes, n.id)
			si.Passes = append(si.Passes, n.Name())
			if !described[n.id] {
				continue
			}
			var what, how string
			switch infos[n.id].Traversal {
			case TraversalScan:
				if st.kind == "scan" {
					how = "scan(fused)"
				} else {
					how = "scan(row-major)"
				}
			case TraversalTopo:
				what, how = "frozen-csr+dag-skeleton", "topo(cached-csr)"
			case TraversalReverseBFS:
				what, how = "dag-skeleton", "reverse-bfs(in-edges)"
			case TraversalLCA:
				what, how = "dag-skeleton+lca-ancestors", "lca(bitset, direction-optimizing)"
			case TraversalMatch:
				what, how = "frozen-csr+label-index", "match(label-index)"
			}
			if how != "" {
				si.Traversals = append(si.Traversals, fmt.Sprintf("%s: %s", n.Name(), how))
			}
			if what == "" || envs[n.id] == nil {
				continue
			}
			key := matID{envs[n.id], what}
			mat := matIdx[key]
			if mat == nil {
				p.trace.Materializations = append(p.trace.Materializations, PlanMatInfo{
					Env: envDesc(envs[n.id]), What: what, ReleasedAfterStage: -1,
				})
				mat = &planMat{
					m:      materialsFor(envs[n.id].G),
					kind:   infos[n.id].Traversal,
					stages: map[int]bool{},
					info:   &p.trace.Materializations[len(p.trace.Materializations)-1],
				}
				p.mats = append(p.mats, mat)
				matIdx[key] = mat
			}
			if !mat.stages[st.id] {
				mat.stages[st.id] = true
				mat.remaining++
			}
			mat.info.Consumers++
		}
		p.trace.Stages = append(p.trace.Stages, si)
	}
}

func envDesc(env *pag.PAG) string {
	view := "top-down"
	if env.View == pag.Parallel {
		view = "parallel"
	}
	return fmt.Sprintf("pag(%s,%dr)", view, env.NRanks)
}
