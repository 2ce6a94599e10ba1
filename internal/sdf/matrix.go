package sdf

import (
	"sort"

	"perflow/internal/ir"
	"perflow/internal/trace"
)

// Pair is an ordered (source, destination) rank pair.
type Pair struct {
	Src, Dst int
}

// Cell accumulates message count and byte volume for one matrix slot.
type Cell struct {
	Count float64
	Bytes float64
}

// Matrix is a communication matrix at one communicator size: per rank-pair
// point-to-point traffic (counted on the SEND side, so crashed receivers
// and dropped deliveries do not hide traffic that was sent) plus per-kind
// collective participation counts. The same shape is produced statically
// from a Model (closed-form, any size) and dynamically from a trace.Run,
// which is what makes the static-vs-dynamic cross-check a map comparison.
type Matrix struct {
	NRanks      int
	Pairs       map[Pair]Cell
	Collectives map[ir.CommKind]Cell // per-kind rank participations
}

func newMatrix(nranks int) *Matrix {
	return &Matrix{
		NRanks:      nranks,
		Pairs:       map[Pair]Cell{},
		Collectives: map[ir.CommKind]Cell{},
	}
}

func (mx *Matrix) addPair(src, dst int, count, bytes float64) {
	c := mx.Pairs[Pair{src, dst}]
	c.Count += count
	c.Bytes += bytes
	mx.Pairs[Pair{src, dst}] = c
}

func (mx *Matrix) addCollective(op ir.CommKind, count, bytes float64) {
	c := mx.Collectives[op]
	c.Count += count
	c.Bytes += bytes
	mx.Collectives[op] = c
}

// TotalP2P sums the point-to-point slots.
func (mx *Matrix) TotalP2P() Cell {
	var t Cell
	for _, c := range mx.Pairs {
		t.Count += c.Count
		t.Bytes += c.Bytes
	}
	return t
}

// Matrix instantiates the model's symbolic communication structure at one
// communicator size. Only the send side of each point-to-point exchange is
// counted (Send/Isend events; the Irecv half of a Sendrecv is a receive and
// contributes nothing), mirroring how Observed counts trace events.
func (m *Model) Matrix(nranks int) *Matrix {
	mx := newMatrix(nranks)
	for _, ev := range m.Events {
		switch {
		case ev.Op == ir.CommSend || ev.Op == ir.CommIsend:
			for rank := 0; rank < nranks; rank++ {
				count := ev.Count(rank, nranks)
				if count <= 0 {
					continue
				}
				dst := ev.Peer.Resolve(rank, nranks)
				if dst < 0 {
					continue
				}
				mx.addPair(rank, dst, count, count*ev.Bytes(rank, nranks))
			}
		case ev.Op.IsCollective():
			for rank := 0; rank < nranks; rank++ {
				count := ev.Count(rank, nranks)
				if count <= 0 {
					continue
				}
				mx.addCollective(ev.Op, count, count*ev.Bytes(rank, nranks))
			}
		}
	}
	return mx
}

// Observed builds the same matrix shape from a recorded run: one count per
// send-side KindComm event, one collective participation per collective
// event. Receive, wait, and GPU events are ignored.
func Observed(run *trace.Run) *Matrix {
	mx := newMatrix(run.NRanks)
	run.ForEach(func(e *trace.Event) {
		if e.Kind != trace.KindComm {
			return
		}
		switch {
		case e.Op == ir.CommSend || e.Op == ir.CommIsend:
			if e.Peer >= 0 {
				mx.addPair(int(e.Rank), int(e.Peer), 1, e.Bytes)
			}
		case e.Op.IsCollective():
			mx.addCollective(e.Op, 1, e.Bytes)
		}
	})
	return mx
}

// Divergence is one slot where prediction and observation disagree. For a
// point-to-point slot Src/Dst are the rank pair and Op is CommSend; for a
// collective slot Src and Dst are -1 and Op names the collective.
type Divergence struct {
	Src, Dst            int
	Op                  ir.CommKind
	PredCount, ObsCount float64
	PredBytes, ObsBytes float64
}

// Diff compares a predicted matrix against an observed one and returns
// every diverging slot in deterministic order (pairs by (src, dst), then
// collectives by kind). Counts compare exactly; bytes compare with a
// relative tolerance since the static side multiplies where the dynamic
// side sums.
func (mx *Matrix) Diff(obs *Matrix) []Divergence {
	var out []Divergence
	pairs := map[Pair]bool{}
	for p := range mx.Pairs {
		pairs[p] = true
	}
	for p := range obs.Pairs {
		pairs[p] = true
	}
	ordered := make([]Pair, 0, len(pairs))
	for p := range pairs {
		ordered = append(ordered, p)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Src != ordered[j].Src {
			return ordered[i].Src < ordered[j].Src
		}
		return ordered[i].Dst < ordered[j].Dst
	})
	for _, p := range ordered {
		pred, o := mx.Pairs[p], obs.Pairs[p]
		if pred.Count != o.Count || !closeEnough(pred.Bytes, o.Bytes) {
			out = append(out, Divergence{
				Src: p.Src, Dst: p.Dst, Op: ir.CommSend,
				PredCount: pred.Count, ObsCount: o.Count,
				PredBytes: pred.Bytes, ObsBytes: o.Bytes,
			})
		}
	}
	kinds := map[ir.CommKind]bool{}
	for k := range mx.Collectives {
		kinds[k] = true
	}
	for k := range obs.Collectives {
		kinds[k] = true
	}
	orderedKinds := make([]ir.CommKind, 0, len(kinds))
	for k := range kinds {
		orderedKinds = append(orderedKinds, k)
	}
	sort.Slice(orderedKinds, func(i, j int) bool { return orderedKinds[i] < orderedKinds[j] })
	for _, k := range orderedKinds {
		pred, o := mx.Collectives[k], obs.Collectives[k]
		if pred.Count != o.Count || !closeEnough(pred.Bytes, o.Bytes) {
			out = append(out, Divergence{
				Src: -1, Dst: -1, Op: k,
				PredCount: pred.Count, ObsCount: o.Count,
				PredBytes: pred.Bytes, ObsBytes: o.Bytes,
			})
		}
	}
	return out
}

// closeEnough compares floats with a relative tolerance, absorbing the
// summation-order difference between N×x and x+x+…+x.
func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if n := b; n > m {
		m = n
	} else if -n > m {
		m = -n
	}
	return d <= 1e-9*m || d == 0
}
