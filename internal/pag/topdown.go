package pag

import (
	"math/bits"
	"runtime"

	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/trace"
)

// BuildTopDown constructs the top-down view of the PAG from the program IR
// ("static analysis", paper §3.2 / Figure 4): one vertex per IR node,
// intra-procedural edges for control flow (container to first child,
// consecutive siblings), and inter-procedural edges from each call site to
// its callee's function vertex. Indirect calls cannot be resolved
// statically; their vertices are marked unresolved, to be completed by the
// dynamic phase.
func BuildTopDown(p *ir.Program) *PAG {
	if !p.Finalized() {
		if err := p.Finalize(); err != nil {
			panic("pag: BuildTopDown on invalid program: " + err.Error())
		}
	}
	out := &PAG{
		G:      graph.New(p.NumNodes(), p.NumNodes()+8),
		Prog:   p,
		View:   TopDown,
		byNode: make([]graph.VertexID, p.NumNodes()),
	}
	for i := range out.byNode {
		out.byNode[i] = graph.NoVertex
	}

	// Create vertices for every node (pre-order, deterministic).
	p.Walk(func(n, _ ir.Node) {
		id := out.addIRVertex(n)
		out.byNode[nodeInfo(n).ID()] = id
	})

	// Intra-procedural edges inside every container.
	p.Walk(func(n, _ ir.Node) {
		kids := n.Children()
		if len(kids) == 0 {
			return
		}
		parentV := out.byNode[nodeInfo(n).ID()]
		prev := graph.NoVertex
		for _, k := range kids {
			kv := out.byNode[nodeInfo(k).ID()]
			if prev == graph.NoVertex {
				out.G.AddEdge(parentV, kv, EdgeIntraProc)
			} else {
				out.G.AddEdge(prev, kv, EdgeIntraProc)
			}
			prev = kv
		}
	})

	// Inter-procedural edges: call site -> callee function vertex.
	p.Walk(func(n, _ ir.Node) {
		c, ok := n.(*ir.Call)
		if !ok {
			return
		}
		cv := out.byNode[c.ID()]
		switch {
		case c.Indirect:
			out.G.Vertex(cv).SetAttr(AttrUnresolved, "true")
		case c.External:
			// External calls have no body in the program; leaf vertex.
		default:
			callee := p.Function(c.Callee)
			out.G.AddEdge(cv, out.byNode[callee.ID()], EdgeInterProc)
		}
	})
	return out
}

// PMUModel converts compute durations into synthetic performance-monitor
// counters. The defaults model a 2.4 GHz core: cycles = µs * 2400;
// instructions and cache misses scale with the IR node's Flops and MemBytes
// rates.
type PMUModel struct {
	CyclesPerUS    float64 // default 2400
	InstrPerFlop   float64 // default 1
	CacheLineBytes float64 // default 64
}

func (m PMUModel) withDefaults() PMUModel {
	if m.CyclesPerUS <= 0 {
		m.CyclesPerUS = 2400
	}
	if m.InstrPerFlop <= 0 {
		m.InstrPerFlop = 1
	}
	if m.CacheLineBytes <= 0 {
		m.CacheLineBytes = 64
	}
	return m
}

// EmbedRun performs performance-data embedding (paper §3.3): every event is
// resolved through its calling context to a PAG vertex; exclusive time
// lands on the leaf vertex and inclusive time is accumulated along the
// ancestor path; communication volume, wait time, call counts, and
// synthesized PMU counters become vertex metrics, with per-rank vectors
// kept for imbalance analysis.
func (p *PAG) EmbedRun(run *trace.Run, pmu PMUModel) {
	p.EmbedRunParallel(run, pmu, BuildOptions{Parallelism: 1})
}

// Accumulator slots: one per metric embedding writes, named by embedKeys.
// The last two are this rank's element of a per-rank vector metric.
const (
	accExcl = iota
	accCount
	accWait
	accBytes
	accCycles
	accInstrs
	accCmiss
	accTime
	accWaitVec
	accTimeVec
	numAccSlots
)

// embedKeys names the metric each accumulator slot merges into.
var embedKeys = [numAccSlots]string{
	MetricExclTime, MetricCount, MetricWait, MetricBytes, MetricCycles,
	MetricInstrs, MetricCacheMiss, MetricTime, MetricWait + "_vec", MetricTime + "_vec",
}

// embedAcc accumulates one rank's metric contributions to one vertex. The
// `set` bitmask records which slots this rank touched, so the merge creates
// the same metric keys (including explicit zeros) as direct accumulation.
type embedAcc struct {
	set uint16
	v   [numAccSlots]float64
}

// embedShard is one worker's accumulator: a dense per-vertex array, so the
// hot loop does slice indexing instead of map hashing, plus the vertices
// the current rank touched, so merging and resetting cost what the rank
// touched rather than the whole array.
type embedShard struct {
	accs    []embedAcc
	touched []graph.VertexID
}

// at returns v's accumulator, recording v's first touch. Callers always set
// at least one bit of the result.
func (s *embedShard) at(v graph.VertexID) *embedAcc {
	a := &s.accs[v]
	if a.set == 0 {
		s.touched = append(s.touched, v)
	}
	return a
}

// embedMerge folds shards into the PAG's metric columns. Each column is
// resolved once per embedding, on first use, so a key no rank touched
// stays absent.
type embedMerge struct {
	g        *graph.Graph
	resolved uint16
	has      [numAccSlots][]bool
	scalar   [accWaitVec][]float64
	vec      [numAccSlots - accWaitVec][][]float64
}

// merge adds one rank's shard to the columns and resets the shard. Ranks
// merge in rank order, so every sum adds its terms in the same order at
// every parallelism; a vector grows to rank+1 exactly as AddVecAt grows it.
func (m *embedMerge) merge(s *embedShard, rank int) {
	for _, v := range s.touched {
		a := &s.accs[v]
		for set := a.set; set != 0; set &= set - 1 {
			k := bits.TrailingZeros16(set)
			if m.resolved&(1<<k) == 0 {
				if k < accWaitVec {
					m.scalar[k], m.has[k] = m.g.WritableVertexMetric(embedKeys[k])
				} else {
					m.vec[k-accWaitVec], m.has[k] = m.g.WritableVertexVec(embedKeys[k])
				}
				m.resolved |= 1 << k
			}
			if k < accWaitVec {
				m.scalar[k][v] += a.v[k]
			} else {
				vec := m.vec[k-accWaitVec][v]
				for len(vec) <= rank {
					vec = append(vec, 0)
				}
				vec[rank] += a.v[k]
				m.vec[k-accWaitVec][v] = vec
			}
			m.has[k][v] = true
		}
		*a = embedAcc{}
	}
	s.touched = s.touched[:0]
}

// EmbedRunParallel is EmbedRun with an explicit parallelism bound. Ranks
// embed in rank-ordered batches of at most Parallelism: each rank of a
// batch folds its events into its own worker's accumulator (the fold only
// reads the PAG: resolveCtx/VertexOf are pure lookups), then the batch
// merges into the metric columns in rank order. At most one accumulator
// per worker is alive at a time. Results are identical at every
// Parallelism setting; EmbedRun delegates here, so this is the only
// embedding path.
func (p *PAG) EmbedRunParallel(run *trace.Run, pmu PMUModel, opts BuildOptions) {
	pmu = pmu.withDefaults()
	p.NRanks = run.NRanks
	p.NThreads = run.ThreadsPerRank
	nranks := len(run.Events)
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, nranks)
	nv := p.G.NumVertices()
	shards := make([]embedShard, workers)
	for i := range shards {
		shards[i].accs = make([]embedAcc, nv)
	}
	m := embedMerge{g: p.G}
	for base := 0; base < nranks; base += workers {
		n := min(workers, nranks-base)
		forEachRank(n, n, func(i int) {
			p.embedRank(run, base+i, &shards[i], pmu)
		})
		for i := range n {
			m.merge(&shards[i], base+i)
		}
	}
}

// embedRank folds one rank's events into shard s, mirroring the per-event
// logic of the paper's data-embedding step.
func (p *PAG) embedRank(run *trace.Run, rank int, s *embedShard, pmu PMUModel) {
	evs := run.Events[rank]
	for i := range evs {
		e := &evs[i]
		leaf := p.resolveCtx(run.CCT, e.Ctx, e.Node)
		if leaf == graph.NoVertex {
			continue
		}
		a := s.at(leaf)
		dur := e.Dur()
		a.v[accExcl] += dur
		a.v[accCount]++
		a.set |= 1<<accExcl | 1<<accCount
		if e.Wait > 0 {
			a.v[accWait] += e.Wait
			a.v[accWaitVec] += e.Wait
			a.set |= 1<<accWait | 1<<accWaitVec
		}
		if e.Bytes > 0 {
			a.v[accBytes] += e.Bytes
			a.set |= 1 << accBytes
		}
		if e.Kind == trace.KindCompute {
			a.v[accCycles] += dur * pmu.CyclesPerUS
			a.set |= 1 << accCycles
			if n, ok := p.Prog.Node(e.Node).(*ir.Compute); ok {
				a.v[accInstrs] += dur * n.Flops * pmu.InstrPerFlop * pmu.CyclesPerUS
				a.v[accCmiss] += dur * n.MemBytes * pmu.CyclesPerUS / pmu.CacheLineBytes
				a.set |= 1<<accInstrs | 1<<accCmiss
			}
		}
		// Inclusive time along the full calling context. Thread-level events
		// inside a region would double-count against the region event that
		// already covers their span, so only rank-level events propagate.
		if e.Thread < 0 {
			for ctx := e.Ctx; ctx != trace.NoCtx; ctx = run.CCT.Parent(ctx) {
				av := p.VertexOf(run.CCT.Node(ctx))
				if av == graph.NoVertex {
					continue
				}
				aa := s.at(av)
				aa.v[accTime] += dur
				aa.v[accTimeVec] += dur
				aa.set |= 1<<accTime | 1<<accTimeVec
			}
		} else {
			a.v[accTime] += dur
			a.v[accTimeVec] += dur
			a.set |= 1<<accTime | 1<<accTimeVec
		}
	}
}

// resolveCtx resolves an event to its top-down vertex by walking the
// calling context from the entry function through the PAG, mirroring the
// search in Figure 3 of the paper. It verifies each step is an IR
// parent-child or call relation by construction of the CCT and falls back
// to the direct node mapping when the context is missing.
func (p *PAG) resolveCtx(cct *trace.CCT, ctx trace.CtxID, node ir.NodeID) graph.VertexID {
	if ctx != trace.NoCtx {
		if leaf := p.VertexOf(cct.Node(ctx)); leaf != graph.NoVertex {
			return leaf
		}
	}
	return p.VertexOf(node)
}

// MarkDynamicCallees completes indirect-call vertices with the callees
// observed at runtime: for each unresolved call vertex whose events exist,
// the dynamic phase drops the unresolved mark. (In this reproduction
// indirect calls execute as flat costs, so no new edges appear, but the
// marker flip mirrors the paper's static/dynamic split.)
func (p *PAG) MarkDynamicCallees(run *trace.Run) {
	seen := map[ir.NodeID]bool{}
	run.ForEach(func(e *trace.Event) { seen[e.Node] = true })
	for i := 0; i < p.G.NumVertices(); i++ {
		v := p.G.Vertex(graph.VertexID(i))
		if v.Attr(AttrUnresolved) == "true" && seen[p.NodeOf(graph.VertexID(i))] {
			v.SetAttr(AttrUnresolved, "resolved-dynamic")
		}
	}
}
