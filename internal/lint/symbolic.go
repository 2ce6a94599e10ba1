package lint

import (
	"fmt"
	"sort"

	"perflow/internal/ir"
	"perflow/internal/sdf"
)

// Symbolic analyzers (PF030–PF036): checks that need the symbolic dataflow
// model (internal/sdf) beyond the per-rank streams every analyzer reads.
// The enumerated checks model communicator sizes {4, 8, 16} and intersect
// findings across them, so a defect that only manifests at, say, 21 or 64
// ranks is structurally invisible to them. The symbolic analyzers close
// that gap two ways:
//
//   - sdf.WitnessSizes derives, from the closed forms in the IR itself, the
//     finite set of sizes at which any expression or peer pattern changes
//     behavior. PF031/PF032/PF036 re-run the proven per-size checks at
//     those witness sizes and report only defects that NO enumerated size
//     exposes — the enumerated checks keep their findings, the symbolic
//     layer adds the ones they provably miss.
//   - The model's guarded symbolic event and cost streams support whole-
//     program questions no single-size walk answers: wildcard fan-in
//     (PF030), closed-form load imbalance (PF033), structurally adjacent
//     barriers (PF034), and super-linear volume growth (PF035).
//
// All of these no-op on recursive programs (PF004 already fails them) and
// when the run is pinned to a single size (Ranks > 0) — pinned runs keep
// the single-size semantics of the enumerated checks.
func init() {
	Register(Analyzer{
		Name: "sym-wildcard-order", Code: "PF030", Severity: SevWarning,
		Doc: "an MPI_ANY_SOURCE receive that can match several senders makes message order nondeterministic",
		Run: runWildcardOrder,
	})
	Register(Analyzer{
		Name: "sym-request-reuse", Code: "PF031", Severity: SevWarning,
		Doc: "request reuse before its wait at communicator sizes the enumeration engine never models",
		Run: runSymRequestReuse,
	})
	Register(Analyzer{
		Name: "sym-collective-divergence", Code: "PF032", Severity: SevError,
		Doc: "collective divergence at communicator sizes the enumeration engine never models",
		Run: runSymCollectiveDivergence,
	})
	Register(Analyzer{
		Name: "sym-load-imbalance", Code: "PF033", Severity: SevWarning,
		Doc: "statically provable load imbalance: one rank's closed-form cost dwarfs the mean",
		Run: runSymImbalance,
	})
	Register(Analyzer{
		Name: "sym-redundant-barrier", Code: "PF034", Severity: SevWarning,
		Doc: "a barrier immediately following another barrier under the same guards synchronizes nothing",
		Run: runSymRedundantBarrier,
	})
	Register(Analyzer{
		Name: "sym-superlinear-volume", Code: "PF035", Severity: SevWarning,
		Doc: "point-to-point communication volume that grows super-linearly with communicator size",
		Run: runSymSuperLinear,
	})
	Register(Analyzer{
		Name: "sym-size-dependent-mismatch", Code: "PF036", Severity: SevError,
		Doc: "point-to-point mismatches at communicator sizes the enumeration engine never models",
		Run: runSymSizeMismatch,
	})
}

// symbolicReady gates the symbolic analyzers: nil means stay silent.
// Pinned-size runs keep the single-size semantics of the enumerated
// checks, and recursive programs, whose model is cut at the back edge,
// get no whole-program claims.
func symbolicReady(ps *Pass) *sdf.Model {
	if ps.Ranks > 0 {
		return nil
	}
	for _, v := range ps.Violations() {
		if v.Code == ir.CodeRecursion {
			return nil
		}
	}
	return ps.Model()
}

// reportWitnessOnly reads a per-size finding function, memoized in the
// run's cache, at every witness size and reports the findings whose anchor
// node carries NO finding at any enumerated size — those are exactly the
// defects the enumerated checks provably miss (whether or not their
// cross-size intersection would have kept them). One finding per node, at
// the smallest witnessing size.
func reportWitnessOnly(ps *Pass, findings func(size int) map[diagKey]Diagnostic) {
	enum := map[int]bool{}
	known := map[ir.NodeID]bool{}
	for _, size := range ps.Sizes() {
		enum[size] = true
		for k := range findings(size) {
			known[k.node] = true
		}
	}
	for _, size := range ps.WitnessSizes() {
		if enum[size] {
			continue
		}
		m := findings(size)
		for _, k := range sortedDiagKeys(m) {
			if known[k.node] {
				continue
			}
			known[k.node] = true
			d := m[k]
			d.Message = fmt.Sprintf("at communicator size %d (invisible at the modeled sizes): %s", size, d.Message)
			ps.Report(d)
		}
	}
}

func sortedDiagKeys(m map[diagKey]Diagnostic) []diagKey {
	keys := make([]diagKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].extra < keys[j].extra
	})
	return keys
}

// probeSizes is the union of the enumerated and witness sizes, sorted.
func probeSizes(ps *Pass) []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range append(append([]int{}, ps.Sizes()...), ps.WitnessSizes()...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// runWildcardOrder (PF030): an MPI_ANY_SOURCE receive that can complete
// sends from two or more distinct ranks receives them in arrival order —
// nondeterministic under any real network. The symbolic model makes the
// fan-in computable: at each probed size, count the distinct live senders
// targeting a rank where the wildcard receive is live, under the same tag.
func runWildcardOrder(ps *Pass) {
	m := symbolicReady(ps)
	if m == nil {
		return
	}
	reported := map[ir.NodeID]bool{}
	for _, ev := range m.Events {
		if ev.Peer.Kind != ir.PeerAny || (ev.Op != ir.CommRecv && ev.Op != ir.CommIrecv) {
			continue
		}
		id := ir.InfoOf(ev.Node).ID()
		if reported[id] {
			continue
		}
		for _, size := range probeSizes(ps) {
			if fanIn, dst := wildcardFanIn(ps, ev, size); fanIn >= 2 {
				reported[id] = true
				ps.Report(ps.diag(ev.Node, ev.Fn,
					"MPI_ANY_SOURCE %s at rank %d (tag %d) can match sends from %d different ranks at size %d; message order is nondeterministic",
					ev.Op, dst, ev.Node.Tag, fanIn, size))
				break
			}
		}
	}
}

// wildcardFanIn returns the largest number of distinct ranks whose sends
// (same tag) target a rank where the wildcard receive is live at the given
// size, and that rank.
func wildcardFanIn(ps *Pass, ev *sdf.Event, size int) (int, int) {
	senders := map[int]map[int]bool{} // dst -> set of sending ranks
	for r := 0; r < size; r++ {
		for _, o := range ps.Comms(r, size) {
			if (o.op == ir.CommSend || o.op == ir.CommIsend) && o.peer >= 0 && o.node.Tag == ev.Node.Tag {
				s := senders[o.peer]
				if s == nil {
					s = map[int]bool{}
					senders[o.peer] = s
				}
				s[r] = true
			}
		}
	}
	best, bestDst := 0, -1
	for dst := 0; dst < size; dst++ {
		if ev.Weight(dst, size) <= 0 {
			continue
		}
		if n := len(senders[dst]); n > best {
			best, bestDst = n, dst
		}
	}
	return best, bestDst
}

// runSymRequestReuse (PF031): the PF011 request-reuse check, probed at the
// witness sizes. A reuse guarded by a condition that only turns on beyond
// the enumerated sizes (a rank-k special case, a trip count crossing zero)
// is invisible to PF011; the witness sizes come from the closed forms, so
// the defect is found wherever it first exists.
func runSymRequestReuse(ps *Pass) {
	if symbolicReady(ps) == nil {
		return
	}
	reportWitnessOnly(ps, func(size int) map[diagKey]Diagnostic { return requestFindings(ps, size).reuse })
}

// runSymCollectiveDivergence (PF032): the PF020 divergence check, probed at
// the witness sizes. Error severity like the defect class deserves: a
// collective skipped by one rank hangs the rest.
func runSymCollectiveDivergence(ps *Pass) {
	if symbolicReady(ps) == nil {
		return
	}
	reportWitnessOnly(ps, func(size int) map[diagKey]Diagnostic { return divergenceFindings(ps, size) })
}

// runSymSizeMismatch (PF036): the PF012 point-to-point matching check,
// probed at the witness sizes.
func runSymSizeMismatch(ps *Pass) {
	if symbolicReady(ps) == nil {
		return
	}
	reportWitnessOnly(ps, func(size int) map[diagKey]Diagnostic { return matchFindings(ps, size).unmatched })
}

// imbalanceThreshold is the critical-path/mean ratio above which PF033
// fires. Deliberately well above ordinary imperfect decompositions
// (lammps, the most imbalanced built-in workload, stays under 2x): the
// analyzer flags a straggler term that makes one rank do several times the
// program's mean work.
const imbalanceThreshold = 4.0

// imbalanceJump is how much worse a witness-size imbalance must be than
// the worst enumerated-size imbalance before PF033 calls it emergent. A
// chronically skewed program (the pipeline demo deliberately loads rank 0)
// approaches its asymptotic ratio smoothly — the enumerated sizes already
// show most of it — whereas a guarded straggler that only switches on
// beyond the enumerated sizes multiplies the ratio abruptly.
const imbalanceJump = 2.0

// runSymImbalance (PF033): evaluate the closed-form cost model at every
// witness size; if some rank's cost is imbalanceThreshold times the mean
// AND the ratio jumped by imbalanceJump over anything the enumerated sizes
// show, a size-triggered straggler is statically proven. Anchored at the
// cost item that dominates the critical rank's time.
func runSymImbalance(ps *Pass) {
	m := symbolicReady(ps)
	if m == nil {
		return
	}
	params := sdf.DefaultCostParams()
	maxEnum := 1.0
	for _, size := range ps.Sizes() {
		if cs := m.Cost(size, params); cs.Mean > 0 && cs.Imbalance > maxEnum {
			maxEnum = cs.Imbalance
		}
	}
	for _, size := range ps.WitnessSizes() {
		cs := m.Cost(size, params)
		if cs.Mean <= 0 || cs.Imbalance < imbalanceThreshold || cs.Imbalance < imbalanceJump*maxEnum {
			continue
		}
		var anchor *sdf.CostItem
		var best float64
		for _, c := range m.Costs {
			if v := c.Value(cs.CritRank, size); v > best {
				best, anchor = v, c
			}
		}
		if anchor == nil {
			return
		}
		ps.Report(ps.diag(anchor.Node, anchor.Fn,
			"statically provable load imbalance at size %d: rank %d costs %.1fx the mean, and this node dominates its time",
			size, cs.CritRank, cs.Imbalance))
		return
	}
}

// runSymRedundantBarrier (PF034): two barriers adjacent in the model's
// whole-program item stream, under identical guard and loop context, with
// nothing between them — the second synchronizes ranks that are already
// synchronized. Structural, so no size probing is needed.
func runSymRedundantBarrier(ps *Pass) {
	m := symbolicReady(ps)
	if m == nil {
		return
	}
	reported := map[[2]*ir.Comm]bool{}
	var prev *sdf.Event
	for _, it := range m.Items {
		ev := it.Ev
		if ev == nil || ev.Op != ir.CommBarrier {
			prev = nil
			continue
		}
		if prev != nil && sameSymCtx(prev, ev) && !reported[[2]*ir.Comm{prev.Node, ev.Node}] {
			reported[[2]*ir.Comm{prev.Node, ev.Node}] = true
			d := ps.diag(ev.Node, ev.Fn,
				"barrier is redundant: it immediately follows another barrier with no intervening work")
			d.Related = append(d.Related, related(prev.Node, "previous barrier here"))
			ps.Report(d)
		}
		prev = ev
	}
}

// sameSymCtx reports whether two events share the exact guard and loop
// context (same branch and loop nodes, in order) — they execute under
// identical conditions.
func sameSymCtx(a, b *sdf.Event) bool {
	if len(a.Guards) != len(b.Guards) || len(a.Loops) != len(b.Loops) {
		return false
	}
	for i := range a.Guards {
		if a.Guards[i] != b.Guards[i] {
			return false
		}
	}
	for i := range a.Loops {
		if a.Loops[i] != b.Loops[i] {
			return false
		}
	}
	return true
}

// superLinearRatio is the per-doubling growth factor above which PF035
// fires. A scalable decomposition at most doubles its total point-to-point
// volume when the communicator doubles (ratio 2); all-pairs exchange
// quadruples it (ratio 4). 2.75 sits between, so halo patterns and
// fan-in/fan-out stay clean while O(P^2) volume is flagged.
const superLinearRatio = 2.75

// runSymSuperLinear (PF035): evaluate the static communication matrix's
// total point-to-point volume at 16, 32, and 64 ranks — closed forms make
// the large sizes free — and flag growth that exceeds superLinearRatio on
// both doublings. Anchored at the send contributing the most volume at 64.
func runSymSuperLinear(ps *Pass) {
	m := symbolicReady(ps)
	if m == nil {
		return
	}
	v16 := m.Matrix(16).TotalP2P().Bytes
	v32 := m.Matrix(32).TotalP2P().Bytes
	v64 := m.Matrix(64).TotalP2P().Bytes
	if v16 <= 0 || v32 < superLinearRatio*v16 || v64 < superLinearRatio*v32 {
		return
	}
	var anchor *sdf.Event
	var best float64
	for _, ev := range m.Events {
		if ev.Op != ir.CommSend && ev.Op != ir.CommIsend {
			continue
		}
		var total float64
		for r := 0; r < 64; r++ {
			total += ev.Count(r, 64) * ev.Bytes(r, 64)
		}
		if total > best {
			best, anchor = total, ev
		}
	}
	if anchor == nil {
		return
	}
	ps.Report(ps.diag(anchor.Node, anchor.Fn,
		"point-to-point volume grows super-linearly with communicator size: %s bytes at 16 ranks, %s at 32, %s at 64; this send dominates",
		trimFloat(v16), trimFloat(v32), trimFloat(v64)))
}
