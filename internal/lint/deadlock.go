package lint

import (
	"fmt"
	"strings"

	"perflow/internal/ir"
	"perflow/internal/mpisim"
)

// Blocking-cycle detection (PF013): each rank blocks first at its earliest
// blocking point-to-point operation — a rendezvous send (above mpisim's
// default eager threshold) or a receive. Rank r waits on rank q when the operation that
// would complete r's blocking op exists at q but only *after* q's own
// blocking point, so q can never reach it; with at most one outgoing
// wait-for edge per rank the graph is functional and every cycle is a
// potential deadlock (the classic "everyone sends right, then receives
// left" ring). A counterpart posted before q blocks — e.g. an Irecv
// prefetched ahead of a blocking send — correctly yields no edge, and a
// counterpart missing entirely is left to the matching analyzer (PF012).
// Ranks whose first blocking operation is a collective are skipped:
// collective/p2p interleavings are out of scope for the static model.
func init() {
	Register(Analyzer{
		Name: "deadlock-cycle", Code: "PF013", Severity: SevError,
		Doc: "blocking sends and receives must not form a wait-for cycle across ranks",
		Run: runDeadlock,
	})
}

func runDeadlock(ps *Pass) {
	reportAtEverySize(ps, func(size int) map[diagKey]Diagnostic {
		m := map[diagKey]Diagnostic{}
		for _, d := range deadlockFindings(ps, size) {
			m[diagKey{node: d.Node}] = d
		}
		return m
	})
}

func deadlockFindings(ps *Pass, size int) []Diagnostic {
	ops := make([][]commOp, size)
	blk := make([]int, size) // index of first blocking p2p op, -1 none
	for r := 0; r < size; r++ {
		ops[r] = ps.Comms(r, size)
		blk[r] = firstBlocking(ops[r])
	}

	// Wait-for edges: next[r] = the rank r's blocking op waits on, or -1.
	next := make([]int, size)
	for r := 0; r < size; r++ {
		next[r] = -1
		bi := blk[r]
		if bi < 0 {
			continue
		}
		o := &ops[r][bi]
		q := o.peer
		if q < 0 || q == r || q >= size || blk[q] < 0 {
			continue
		}
		j := counterpartIndex(ops[q], o, r)
		if j >= 0 && j > blk[q] {
			next[r] = q
		}
	}

	// Cycle detection on the functional wait-for graph.
	var out []Diagnostic
	state := make([]int, size) // 0 unvisited, 1 on current path, 2 done
	for s := 0; s < size; s++ {
		if state[s] != 0 {
			continue
		}
		var path []int
		r := s
		for r >= 0 && state[r] == 0 {
			state[r] = 1
			path = append(path, r)
			r = next[r]
		}
		if r >= 0 && state[r] == 1 {
			start := 0
			for path[start] != r {
				start++
			}
			out = append(out, cycleDiag(ps, ops, blk, path[start:], size))
		}
		for _, p := range path {
			state[p] = 2
		}
	}
	return out
}

// firstBlocking returns the index of the first operation that blocks the
// rank: a rendezvous send or a receive. A collective hit first ends the
// scan — the rank synchronizes with everyone before any p2p blocking
// point, which this analyzer does not model.
func firstBlocking(ops []commOp) int {
	for i := range ops {
		o := &ops[i]
		if o.op == ir.CommRecv || (o.op == ir.CommSend && o.bytes > mpisim.DefaultEagerThreshold) {
			return i
		}
		if o.node.Op.IsCollective() {
			return -1
		}
	}
	return -1
}

// counterpartIndex finds the position in q's sequence of the operation
// that completes rank r's blocking op o: the first matching receive for a
// send, the first matching send for a receive. Nonblocking counterparts
// count — an Irecv completes a rendezvous send at its post position.
func counterpartIndex(qops []commOp, o *commOp, r int) int {
	for i := range qops {
		q := &qops[i]
		if q.peer != r || q.node.Tag != o.node.Tag {
			continue
		}
		switch o.op {
		case ir.CommSend:
			if q.op == ir.CommRecv || q.op == ir.CommIrecv {
				return i
			}
		case ir.CommRecv:
			if q.op == ir.CommSend || q.op == ir.CommIsend {
				return i
			}
		}
	}
	return -1
}

// cycleDiag renders one wait-for cycle, anchored at the lowest rank's
// blocking operation so the finding is stable across communicator sizes.
func cycleDiag(ps *Pass, ops [][]commOp, blk []int, cycle []int, size int) Diagnostic {
	minAt := 0
	for i, r := range cycle {
		if r < cycle[minAt] {
			minAt = i
		}
	}
	rot := append(append([]int(nil), cycle[minAt:]...), cycle[:minAt]...)

	var arrows strings.Builder
	for _, r := range rot {
		fmt.Fprintf(&arrows, "%d -> ", r)
	}
	fmt.Fprintf(&arrows, "%d", rot[0])

	anchor := &ops[rot[0]][blk[rot[0]]]
	d := ps.diag(anchor.node, anchor.fn,
		"potential deadlock at communicator size %d: ranks wait in a cycle %s, each blocked in %s",
		size, arrows.String(), anchor.op)

	// Related positions: the distinct blocking operations on the cycle
	// (rings typically share one statement; irregular cycles list each).
	seen := map[ir.NodeID]bool{ir.InfoOf(anchor.node).ID(): true}
	for _, r := range rot[1:] {
		o := &ops[r][blk[r]]
		id := ir.InfoOf(o.node).ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		d.Related = append(d.Related, related(o.node, "rank %d blocks in %s here", r, o.op))
	}
	return d
}
