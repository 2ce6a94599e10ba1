// Package sdf is the symbolic dataflow framework over the MPI IR: an
// interprocedural, loop-aware static analysis that derives a program's
// communication structure and cost WITHOUT running a single rank.
//
// The analysis is a summary-based fixpoint over a simple lattice: the
// dataflow fact for a function is the ordered list of guarded symbolic
// communication events (and cost-bearing items) one invocation performs.
// Bottom is the empty list; the transfer functions extend the list in
// program order; branch conditions join as symbolic guards rather than by
// merging paths (the IR's branch conditions are closed-form in rank and
// size, so both arms stay distinguishable); loops keep their trip counts
// symbolic. Call sites compose summaries by prefixing the caller's guard
// and loop context onto every callee event — the interprocedural step.
// Back edges in the call graph widen to bottom: a call to a function
// already on the call stack contributes nothing, which makes the fixpoint
// converge in one pass. ir.Validate rejects recursion (PF004), so only
// lenient lint runs see a cut.
//
// Every derived artifact — the static communication matrix, the per-rank
// cost vector, the critical-path estimate — is a closed-form function of
// (rank, size), evaluable at ANY communicator size, including sizes the
// rank-enumerating lint engine never models. Two evaluation semantics
// coexist, because the repo has two consumers with different counting
// rules:
//
//   - Event.Count mirrors the SIMULATOR's flattener: communication inside
//     a non-comm-per-iter loop executes once (as if hoisted), and a
//     comm-per-iter loop replays its body int(trips) times. Matrix uses
//     this, which is why the static matrix matches a dynamically collected
//     one exactly on fault-free runs.
//   - Event.Weight is the LINT engine's rule: multiplicity is the full
//     (float) product of enclosing trip counts, the multiplicity a
//     per-rank walk of the IR gives when it enters each loop once.
package sdf

import (
	"fmt"

	"perflow/internal/ir"
)

// Event is one point-to-point or collective operation with its full static
// context: the symbolic peer pattern, payload size, guards (enclosing
// branch conditions, all of which must be nonzero for the event to
// execute), and enclosing loops (trip counts symbolic). MPI_Sendrecv is
// split into its Isend half (toward the peer) and Irecv half (from the
// symmetric partner), exactly as the simulator expands it.
type Event struct {
	Node *ir.Comm
	Op   ir.CommKind // effective operation; never CommSendrecv
	Fn   string      // enclosing function
	Peer ir.Peer     // symbolic peer (Symmetric for the Irecv half)

	Guards []*ir.Branch // conjunction of enclosing branch conditions
	Loops  []*ir.Loop   // enclosing loops, outermost first
}

// CostItem is one cost-bearing node (compute, external call, lock or
// allocator hold, GPU kernel) with its static context. Its contribution to
// a rank's compute units is eval × loop multiplicity, guarded like events.
type CostItem struct {
	Node   ir.Node
	Fn     string
	Guards []*ir.Branch
	Loops  []*ir.Loop

	// eval returns the item's unscaled per-execution cost for (rank, size).
	eval func(rank, nranks int) float64
}

// Item is one slot of the model's interleaved program-order stream: exactly
// one of Ev or Cost is set. Analyzers that care about adjacency (redundant
// barriers) read Items; everyone else reads Events or Costs.
type Item struct {
	Ev   *Event
	Cost *CostItem
}

// Model is the whole-program symbolic dataflow result: the entry rank's
// event and cost streams in execution order, with all rank/size dependence
// kept symbolic.
type Model struct {
	Prog   *ir.Program
	Events []*Event
	Costs  []*CostItem
	Items  []Item

	summaries map[string]*summary // cut-free summaries only
	cuts      int                 // back edges cut so far
}

// summary is the per-function dataflow fact: the items one invocation of
// the function produces, with guard/loop context relative to the function
// entry.
type summary struct {
	items []Item
}

// New derives the symbolic dataflow model of a program. Its only error is
// a missing entry function. A recursive call graph is cut at the back edge,
// where a call to a function already on the call stack contributes no
// items; that is where a per-rank walk of the IR stops too.
func New(prog *ir.Program) (*Model, error) {
	entry := prog.Function(prog.Entry)
	if entry == nil {
		return nil, fmt.Errorf("sdf: program has no entry function %q", prog.Entry)
	}
	m := &Model{Prog: prog, summaries: map[string]*summary{}}
	sum := m.summarize(entry, map[string]bool{})
	m.Items = expand(sum.items, nil, nil)
	for i := range m.Items {
		if ev := m.Items[i].Ev; ev != nil {
			m.Events = append(m.Events, ev)
		} else {
			m.Costs = append(m.Costs, m.Items[i].Cost)
		}
	}
	return m, nil
}

// summarize computes the summary of one function: the fixpoint iteration
// degenerates to a post-order walk because back edges widen to bottom
// (onStack cut). Only summaries whose walk cut no back edge are memoized.
// Such a summary is the same under every call stack: a cut under some
// stack would need a cycle through the function, and that cycle cuts
// under every stack. A summary that cut depends on the stack it was built
// under, so it is rebuilt at each call site.
func (m *Model) summarize(f *ir.Function, onStack map[string]bool) *summary {
	if s, ok := m.summaries[f.Name]; ok {
		return s
	}
	cuts := m.cuts
	onStack[f.Name] = true
	s := &summary{items: m.walk(f.Body, f.Name, nil, nil, onStack)}
	onStack[f.Name] = false
	if m.cuts == cuts {
		m.summaries[f.Name] = s
	}
	return s
}

// walk builds the item stream of a node list under the given guard/loop
// context, following direct calls through their summaries.
func (m *Model) walk(ns []ir.Node, fn string, guards []*ir.Branch, loops []*ir.Loop, onStack map[string]bool) []Item {
	var out []Item
	costItem := func(n ir.Node, eval func(rank, nranks int) float64) {
		out = append(out, Item{Cost: &CostItem{
			Node: n, Fn: fn, Guards: guards, Loops: loops, eval: eval,
		}})
	}
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Comm:
			emit := func(op ir.CommKind, peer ir.Peer) {
				out = append(out, Item{Ev: &Event{
					Node: x, Op: op, Fn: fn, Peer: peer,
					Guards: guards, Loops: loops,
				}})
			}
			if x.Op == ir.CommSendrecv {
				emit(ir.CommIsend, x.Peer)
				emit(ir.CommIrecv, x.Peer.Symmetric())
			} else {
				emit(x.Op, x.Peer)
			}

		case *ir.Branch:
			g := append(append([]*ir.Branch{}, guards...), x)
			out = append(out, m.walk(x.Body, fn, g, loops, onStack)...)

		case *ir.Loop:
			l := append(append([]*ir.Loop{}, loops...), x)
			out = append(out, m.walk(x.Body, fn, guards, l, onStack)...)

		case *ir.Call:
			if x.External || x.Indirect {
				cost := x.Cost
				costItem(x, func(rank, nranks int) float64 { return cost.Value(rank, nranks) })
				continue
			}
			if onStack[x.Callee] {
				m.cuts++ // back edge: widen to bottom
				continue
			}
			callee := m.Prog.Function(x.Callee)
			if callee == nil {
				continue
			}
			sum := m.summarize(callee, onStack)
			out = append(out, expand(sum.items, guards, loops)...)

		case *ir.Compute:
			cost := x.Cost
			costItem(x, func(rank, nranks int) float64 { return cost.Value(rank, nranks) })

		case *ir.Kernel:
			cost := x.Cost
			costItem(x, func(rank, nranks int) float64 { return cost.Value(rank, nranks) })

		case *ir.Mutex:
			cnt, hold := x.Count, x.Hold
			costItem(x, func(rank, nranks int) float64 {
				return cnt.Value(rank, nranks) * hold.Value(rank, nranks)
			})

		case *ir.Alloc:
			cnt, hold := x.Count, x.Hold
			costItem(x, func(rank, nranks int) float64 {
				return cnt.Value(rank, nranks) * hold.Value(rank, nranks)
			})

		default:
			out = append(out, m.walk(n.Children(), fn, guards, loops, onStack)...)
		}
	}
	return out
}

// expand prefixes a caller context onto a summary's items — the
// interprocedural composition step. With an empty prefix it still copies,
// so one summary inlined at two call sites yields independent events.
func expand(items []Item, guards []*ir.Branch, loops []*ir.Loop) []Item {
	out := make([]Item, 0, len(items))
	for _, it := range items {
		if it.Ev != nil {
			ev := *it.Ev
			ev.Guards = joinCtx(guards, ev.Guards)
			ev.Loops = joinCtx(loops, ev.Loops)
			out = append(out, Item{Ev: &ev})
		} else {
			c := *it.Cost
			c.Guards = joinCtx(guards, c.Guards)
			c.Loops = joinCtx(loops, c.Loops)
			out = append(out, Item{Cost: &c})
		}
	}
	return out
}

func joinCtx[T any](prefix, rel []T) []T {
	if len(prefix) == 0 {
		return rel
	}
	return append(append([]T{}, prefix...), rel...)
}

// Live reports whether the event's guards are all satisfied and every
// enclosing loop trips at least fractionally for (rank, nranks).
func live(guards []*ir.Branch, loops []*ir.Loop, rank, nranks int) bool {
	for _, g := range guards {
		if g.Taken.Value(rank, nranks) == 0 {
			return false
		}
	}
	for _, l := range loops {
		if l.Trips.Value(rank, nranks) <= 0 {
			return false
		}
	}
	return true
}

// Count returns how many times the event executes for one rank at one
// communicator size under the SIMULATOR's semantics: comm-per-iter loops
// contribute int(trips) iterations, other loops execute the event once (as
// if hoisted). This is the counting rule the static communication matrix
// uses, and it matches the flattener exactly.
func (e *Event) Count(rank, nranks int) float64 {
	if !live(e.Guards, e.Loops, rank, nranks) {
		return 0
	}
	count := 1.0
	for _, l := range e.Loops {
		if l.CommPerIter {
			count *= float64(int(l.Trips.Value(rank, nranks)))
		}
	}
	return count
}

// Weight returns the event's multiplicity under the LINT engine's
// semantics: the full floating-point product of enclosing trip counts,
// regardless of comm-per-iter. Lint's per-rank streams use it.
func (e *Event) Weight(rank, nranks int) float64 {
	if !live(e.Guards, e.Loops, rank, nranks) {
		return 0
	}
	w := 1.0
	for _, l := range e.Loops {
		w *= l.Trips.Value(rank, nranks)
	}
	return w
}

// Bytes returns the event's payload size for (rank, nranks).
func (e *Event) Bytes(rank, nranks int) float64 {
	return e.Node.Bytes.Value(rank, nranks)
}

// Value returns the cost item's contribution to a rank's compute units:
// per-execution cost times the full loop multiplicity (comm-per-iter loops
// contribute int(trips) body executions, others the closed-form product —
// the flattener's compute semantics).
func (c *CostItem) Value(rank, nranks int) float64 {
	if !live(c.Guards, c.Loops, rank, nranks) {
		return 0
	}
	mult := 1.0
	for _, l := range c.Loops {
		trips := l.Trips.Value(rank, nranks)
		if l.CommPerIter {
			mult *= float64(int(trips))
		} else {
			mult *= trips
		}
	}
	return c.eval(rank, nranks) * mult
}
