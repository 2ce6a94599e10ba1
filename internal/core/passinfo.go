package core

import (
	"context"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// Pass descriptors: the declarative access-pattern contract between the
// pass library and the pass-plan compiler (planner.go). A pass that
// publishes a PassInfo tells the planner what it touches — which
// environment keys it reads and writes, whether it mutates its input sets,
// what traversal shape dominates its work — and the planner uses those
// declarations to prove fusion legal and to choose traversals. Passes that
// publish nothing (user-defined passes, side-effecting passes like report)
// are perfectly fine: the planner gives each its own fallback stage, the
// same stage it gives every pass with fusion off.

// TraversalKind classifies a pass's dominant access pattern over its input
// set and environment.
type TraversalKind int

const (
	// TraversalNone marks passes with no structured graph traversal:
	// sources, set algebra (union, intersect), graph difference.
	TraversalNone TraversalKind = iota
	// TraversalScan marks one linear sweep over the input set's vertices.
	// Scan passes additionally exposing a ScanKernel are fusable: sibling
	// scans over the same set share a single loop.
	TraversalScan
	// TraversalTopo marks a topological sweep of the environment
	// (critical-path extraction).
	TraversalTopo
	// TraversalReverseBFS marks a backwards walk over in-edges
	// (backtracking).
	TraversalReverseBFS
	// TraversalLCA marks ancestor-set bitset queries (causal analysis,
	// common dominators).
	TraversalLCA
	// TraversalMatch marks subgraph matching (contention detection).
	TraversalMatch
)

// String names the traversal kind as it appears in plan traces.
func (k TraversalKind) String() string {
	switch k {
	case TraversalScan:
		return "scan"
	case TraversalTopo:
		return "topo"
	case TraversalReverseBFS:
		return "reverse-bfs"
	case TraversalLCA:
		return "lca"
	case TraversalMatch:
		return "match"
	default:
		return "none"
	}
}

// ScanKernel is the per-vertex form of a scan pass, produced by
// PassInfo.Scan for one concrete input set. The planner drives one shared
// loop over the input's vertices and feeds each to every fused kernel;
// Finish assembles the pass's output sets exactly as the standalone pass
// would have.
type ScanKernel interface {
	// Visit observes vertex v, the i-th element of the input set.
	Visit(i int, v graph.VertexID)
	// Finish returns the pass's output sets after the full scan.
	Finish() ([]*Set, error)
}

// PassInfo is a pass's declarative access-pattern descriptor.
type PassInfo struct {
	// Pure declares that the pass never mutates its input sets' V/E slices
	// (it may still annotate environment vertices, declared via Writes).
	// Only pure passes are fused or spared defensive clones.
	Pure bool

	// Traversal is the pass's dominant access pattern, used for traversal
	// selection and trace reporting.
	Traversal TraversalKind

	// Reads and Writes list the environment metric/attribute keys the pass
	// reads and writes. Two passes may share a fused scan only when
	// neither's Writes intersect the other's Reads or Writes — the
	// disjointness proof that makes per-vertex interleaving equivalent to
	// any sequential order.
	Reads  []string
	Writes []string

	// NewEnv declares that the pass's outputs live over a different
	// environment (PAG graph) than its inputs — differential analysis,
	// condensation. Static environment propagation stops there.
	NewEnv bool

	// Env, when non-nil, is the statically known output environment
	// (project passes carry their target). Overrides propagation.
	Env *pag.PAG

	// Scan, when non-nil, exposes the pass as a fusable per-vertex kernel
	// over one concrete input set.
	Scan func(in *Set) ScanKernel
}

// conflictsWith reports whether fusing p and q into one interleaved scan
// could change results: a write on either side touching the other's reads
// or writes.
func (p PassInfo) conflictsWith(q PassInfo) bool {
	return keysIntersect(p.Writes, q.Reads) ||
		keysIntersect(q.Writes, p.Reads) ||
		keysIntersect(p.Writes, q.Writes)
}

func keysIntersect(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y || x == "*" || y == "*" {
				return true
			}
		}
	}
	return false
}

// DescribedPass is a Pass that publishes its access pattern.
type DescribedPass interface {
	Pass
	Info() PassInfo
}

// Describe attaches a descriptor to a pass. The wrapper preserves the
// ContextPass fast path when the underlying pass implements it.
func Describe(p Pass, info PassInfo) Pass {
	d := describedPass{Pass: p, info: info}
	if cp, ok := p.(ContextPass); ok {
		return describedCtxPass{describedPass: d, cp: cp}
	}
	return d
}

type describedPass struct {
	Pass
	info PassInfo
}

func (d describedPass) Info() PassInfo { return d.info }

type describedCtxPass struct {
	describedPass
	cp ContextPass
}

func (d describedCtxPass) RunContext(ctx context.Context, in []*Set) ([]*Set, error) {
	return d.cp.RunContext(ctx, in)
}

// passInfo returns p's descriptor, if it publishes one.
func passInfo(p Pass) (PassInfo, bool) {
	if dp, ok := p.(DescribedPass); ok {
		return dp.Info(), true
	}
	return PassInfo{}, false
}
