package lint

import (
	"fmt"
	"sort"

	"perflow/internal/ir"
)

// Static point-to-point matching: with every rank's communication resolved
// (walk.go), sends and receives aggregate into channels keyed by
// (source, destination, tag). A send channel with no receive channel — or
// mismatched operation counts — can never complete and is an error
// (PF012); a matched channel whose sides disagree on message size is a
// warning (PF014), since MPI permits a larger receive buffer but the model
// is then measuring the wrong volume.
func init() {
	Register(Analyzer{
		Name: "p2p-match", Code: "PF012", Severity: SevError,
		Doc: "every point-to-point send needs a matching receive (peer, tag, count)",
		Run: func(ps *Pass) {
			reportAtEverySize(ps, func(size int) map[diagKey]Diagnostic { return matchFindings(ps, size).unmatched })
		},
	})
	Register(Analyzer{
		Name: "p2p-bytes", Code: "PF014", Severity: SevWarning,
		Doc: "matched sends and receives should agree on message size",
		Run: func(ps *Pass) {
			reportAtEverySize(ps, func(size int) map[diagKey]Diagnostic { return matchFindings(ps, size).bytes })
		},
	})
}

// matchResult holds the point-to-point matching findings at one
// communicator size, one per anchor node: unmatched channels and count
// mismatches (PF012), and payload-size disagreements (PF014).
type matchResult struct {
	unmatched, bytes map[diagKey]Diagnostic
}

// chKey identifies a point-to-point channel.
type chKey struct{ src, dst, tag int }

// wildKey identifies a wildcard pool: the MPI_ANY_SOURCE receives one rank
// posts under one tag, aggregated. The pool can complete a send from any
// source, so sends with no explicit receive channel are absorbed by it
// instead of reported as unmatched; which sender each receive pairs with is
// nondeterministic, which PF030 reports separately.
type wildKey struct{ dst, tag int }

// chSide aggregates one side of a channel.
type chSide struct {
	count float64 // total operations, weighted by loop multiplicity
	bytes float64 // total bytes (count-weighted)
	node  *ir.Comm
	op    ir.CommKind
	fn    string
}

func accumulate(m map[chKey]*chSide, k chKey, o commOp) {
	s := m[k]
	if s == nil {
		s = &chSide{node: o.node, op: o.op, fn: o.fn}
		m[k] = s
	}
	s.count += o.mult
	s.bytes += o.mult * o.bytes
}

// matchFindings aggregates every rank's channels at one communicator size,
// once per Run. PF012/PF014 intersect the findings across the default
// sizes; the symbolic PF036 probes the PF012 findings at witness sizes
// beyond the enumerated set.
func matchFindings(ps *Pass, size int) matchResult {
	return perSize(&ps.cache.matches, size, func() matchResult { return matchChannels(ps, size) })
}

func matchChannels(ps *Pass, size int) matchResult {
	sends := map[chKey]*chSide{}
	recvs := map[chKey]*chSide{}
	wilds := map[wildKey]*chSide{}
	for r := 0; r < size; r++ {
		for _, o := range ps.Comms(r, size) {
			if o.peer == wildAny {
				switch o.op {
				case ir.CommRecv, ir.CommIrecv:
					k := wildKey{dst: r, tag: o.node.Tag}
					s := wilds[k]
					if s == nil {
						s = &chSide{node: o.node, op: o.op, fn: o.fn}
						wilds[k] = s
					}
					s.count += o.mult
					s.bytes += o.mult * o.bytes
				}
				continue
			}
			if o.peer < 0 {
				continue // missing or unresolvable peer; PF002 territory
			}
			switch o.op {
			case ir.CommSend, ir.CommIsend:
				accumulate(sends, chKey{src: r, dst: o.peer, tag: o.node.Tag}, o)
			case ir.CommRecv, ir.CommIrecv:
				accumulate(recvs, chKey{src: o.peer, dst: r, tag: o.node.Tag}, o)
			}
		}
	}
	// Any send channel toward (dst, tag) is a candidate for that pool's
	// wildcard receives, whether or not an explicit receive also exists.
	sendCandidates := map[wildKey]bool{}
	for k := range sends {
		sendCandidates[wildKey{dst: k.dst, tag: k.tag}] = true
	}

	// One finding per anchor node: a single send statement generates a
	// channel per rank pair, so defects collapse to the statement with the
	// affected pair count and the smallest pair as the example.
	unmatched, bytes := nodeFindings{}, nodeFindings{}
	for _, k := range sortedKeys(sends) {
		s := sends[k]
		rv, matched := recvs[k]
		w, wild := wilds[wildKey{dst: k.dst, tag: k.tag}]
		switch {
		case !matched && wild:
			// Absorbed by the wildcard pool: an any-source receive at the
			// destination completes these sends. Count accounting across the
			// pool is nondeterministic (PF030 territory), but a payload-size
			// disagreement is still statically certain.
			if s.count > 0 && w.count > 0 && !closeEnough(s.bytes/s.count, w.bytes/w.count) {
				d := ps.diag(s.node, s.fn,
					"%s rank %d -> rank %d (tag %d) sends %s bytes but the any-source receive posts %s bytes",
					s.op, k.src, k.dst, k.tag, trimFloat(s.bytes/s.count), trimFloat(w.bytes/w.count))
				d.Related = append(d.Related, related(w.node, "matching any-source %s here", w.op))
				bytes.record(d)
			}
		case matched && wild:
			// Explicit receives exist too, but the wildcard competes for the
			// same messages: static count/size bookkeeping per channel is no
			// longer meaningful, so stay silent rather than guess.
		case !matched:
			d := ps.diag(s.node, s.fn,
				"%s rank %d -> rank %d (tag %d) has no matching receive", s.op, k.src, k.dst, k.tag)
			if hint := tagHint(recvs, k); hint != nil {
				d.Related = append(d.Related, *hint)
			}
			unmatched.record(d)
		case !closeEnough(s.count, rv.count):
			d := ps.diag(s.node, s.fn,
				"%s rank %d -> rank %d (tag %d): %s sends but %s receives", s.op, k.src, k.dst, k.tag,
				trimFloat(s.count), trimFloat(rv.count))
			d.Related = append(d.Related, related(rv.node, "matching %s here", rv.op))
			unmatched.record(d)
		case !closeEnough(s.bytes/s.count, rv.bytes/rv.count):
			d := ps.diag(s.node, s.fn,
				"%s rank %d -> rank %d (tag %d) sends %s bytes but the receive posts %s bytes",
				s.op, k.src, k.dst, k.tag, trimFloat(s.bytes/s.count), trimFloat(rv.bytes/rv.count))
			d.Related = append(d.Related, related(rv.node, "matching %s here", rv.op))
			bytes.record(d)
		}
	}
	for _, k := range sortedKeys(recvs) {
		if _, matched := sends[k]; matched {
			continue
		}
		rv := recvs[k]
		d := ps.diag(rv.node, rv.fn,
			"%s at rank %d from rank %d (tag %d) has no matching send", rv.op, k.dst, k.src, k.tag)
		if hint := tagHintSend(sends, k); hint != nil {
			d.Related = append(d.Related, *hint)
		}
		unmatched.record(d)
	}
	for _, wk := range sortedWildKeys(wilds) {
		if sendCandidates[wk] {
			continue
		}
		rv := wilds[wk]
		unmatched.record(ps.diag(rv.node, rv.fn,
			"%s at rank %d from MPI_ANY_SOURCE (tag %d) has no candidate send from any rank",
			rv.op, wk.dst, wk.tag))
	}
	return matchResult{unmatched: unmatched.findings(), bytes: bytes.findings()}
}

// nodeFindings collapses channel findings onto their anchor node: the
// first finding per node is kept, with a count of the rank pairs it
// stands for.
type nodeFindings map[ir.NodeID]*nodeAgg

type nodeAgg struct {
	d     Diagnostic
	pairs int
}

func (nf nodeFindings) record(d Diagnostic) {
	if a, ok := nf[d.Node]; ok {
		a.pairs++
	} else {
		nf[d.Node] = &nodeAgg{d: d, pairs: 1}
	}
}

// findings returns one diagnostic per node, suffixed with the number of
// affected rank pairs when there are several.
func (nf nodeFindings) findings() map[diagKey]Diagnostic {
	m := make(map[diagKey]Diagnostic, len(nf))
	for id, a := range nf {
		if a.pairs > 1 {
			a.d.Message += fmt.Sprintf(" (%d rank pairs affected)", a.pairs)
		}
		m[diagKey{node: id}] = a.d
	}
	return m
}

// tagHint finds a receive on the same rank pair under a different tag —
// the classic tag-mismatch typo — and points at it.
func tagHint(recvs map[chKey]*chSide, k chKey) *Related {
	for _, rk := range sortedKeys(recvs) {
		if rk.src == k.src && rk.dst == k.dst && rk.tag != k.tag {
			r := related(recvs[rk].node, "rank %d receives from rank %d with tag %d here", rk.dst, rk.src, rk.tag)
			return &r
		}
	}
	return nil
}

// tagHintSend is tagHint for the send side.
func tagHintSend(sends map[chKey]*chSide, k chKey) *Related {
	for _, sk := range sortedKeys(sends) {
		if sk.src == k.src && sk.dst == k.dst && sk.tag != k.tag {
			r := related(sends[sk].node, "rank %d sends to rank %d with tag %d here", sk.src, sk.dst, sk.tag)
			return &r
		}
	}
	return nil
}

func sortedKeys(m map[chKey]*chSide) []chKey {
	keys := make([]chKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	return keys
}

func sortedWildKeys(m map[wildKey]*chSide) []wildKey {
	keys := make([]wildKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	return keys
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > scale {
		scale = b
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-9*scale
}

// trimFloat renders a float without trailing zeros (counts are usually
// whole numbers; loop multiplicities can make them fractional).
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
