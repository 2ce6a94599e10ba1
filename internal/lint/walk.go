package lint

import (
	"perflow/internal/ir"
	"perflow/internal/sdf"
)

// wildAny marks a receive posted with MPI_ANY_SOURCE: unlike an unresolved
// peer (-1, which analyzers skip as PF002 territory), a wildcard is a
// deliberate pattern that matches a send from any rank. The matcher treats
// wildcard receives as a per-(destination, tag) pool that absorbs otherwise
// unmatched sends.
const wildAny = -2

// commOp is one communication operation as one rank executes it, resolved
// statically: peers, branch conditions, and loop trip counts are all
// evaluable per (rank, size), so the per-rank sequence of MPI calls is
// known without running the simulator.
type commOp struct {
	node  *ir.Comm
	op    ir.CommKind // effective operation (Sendrecv splits into Isend+Irecv)
	fn    string      // enclosing function
	peer  int         // resolved peer rank for p2p ops; -1 when unresolved
	mult  float64     // execution count from enclosing loop trip products
	bytes float64
}

// modelComms resolves the communication sequence of one rank from the
// symbolic dataflow model: each symbolic event's closed-form guard, trip
// product, peer, and payload are evaluated at (rank, nranks). Events whose
// guards fail or whose loops never trip are dropped; Sendrecv arrives
// already split into an Isend toward the peer and an Irecv from the
// symmetric partner, as mpisim executes it. TestSymbolicEnumerationAgree
// checks the stream against a per-rank walk of the IR.
func modelComms(m *sdf.Model, rank, nranks int) []commOp {
	var out []commOp
	for _, ev := range m.Events {
		w := ev.Weight(rank, nranks)
		if w == 0 {
			continue
		}
		o := commOp{node: ev.Node, op: ev.Op, fn: ev.Fn, peer: -1, mult: w,
			bytes: ev.Bytes(rank, nranks)}
		switch ev.Op {
		case ir.CommSend, ir.CommRecv, ir.CommIsend, ir.CommIrecv:
			if ev.Peer.Kind == ir.PeerAny {
				o.peer = wildAny
			} else {
				o.peer = ev.Peer.Resolve(rank, nranks)
			}
		}
		out = append(out, o)
	}
	return out
}
