package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// PassSpan is the instrumentation record of one pass execution: wall-clock
// interval (relative to the run start), the worker that ran it, and the
// vertex counts of its input and output sets — the engine-side observability
// the paper's overhead accounting (Table 1) presumes.
type PassSpan struct {
	Node     int    // node id, in graph insertion order
	Pass     string // pass name
	Worker   int    // index of the worker-pool goroutine that ran the pass
	Start    time.Duration
	End      time.Duration
	InSizes  []int  // vertex count per input set
	OutSizes []int  // vertex count per output set
	Err      string // non-empty when the pass failed
}

// Wall returns the span's duration.
func (s PassSpan) Wall() time.Duration { return s.End - s.Start }

// PassFailure reasons.
const (
	FailureError   = "error"   // the pass returned an error
	FailurePanic   = "panic"   // the pass panicked (recovered by the scheduler)
	FailureTimeout = "timeout" // the pass exceeded WithPassTimeout
)

// PassFailure records one pass that failed while the run continued
// (degraded mode, WithContinueOnFailure): the node substituted empty
// outputs and everything downstream ran on incomplete data.
type PassFailure struct {
	Node   int    // node id, in graph insertion order
	Pass   string // pass name
	Reason string // FailureError, FailurePanic, or FailureTimeout
	Err    string // the failure message
}

// ExecutionTrace is the per-run instrumentation of a PerFlowGraph: one span
// per executed pass plus pool-level totals. Retrieve it from Results.Trace
// or PerFlowGraph.Trace, and render it with Write (the cmd/pflow -trace
// flag).
type ExecutionTrace struct {
	Workers int           // worker-pool size of the run
	Wall    time.Duration // end-to-end run duration
	Spans   []PassSpan    // one per executed pass, ordered by start time
	// Failures lists the passes that failed without stopping the run
	// (degraded mode), ordered by node id. Empty for a clean run.
	Failures []PassFailure
	// Plan records the pass-plan compiler's decisions for the run; nil when
	// the run had fusion off (WithPlanning(false)), whose one-stage-per-pass
	// plan involves no decisions.
	Plan *PlanTrace
}

// PlanStageInfo describes one compiled execution stage: which nodes it
// fused, how, and the traversal decisions taken for its passes.
type PlanStageInfo struct {
	Stage int    `json:"stage"`
	Kind  string `json:"kind"` // "fallback", "single", "chain", or "scan"
	Nodes []int  `json:"nodes"`
	// Passes names the stage members, in execution order.
	Passes []string `json:"passes"`
	// Traversals records the traversal/direction chosen per traversal-kind
	// member, e.g. "critical_path: topo(cached-csr)".
	Traversals []string `json:"traversals,omitempty"`
}

// PlanMatInfo describes one hoisted materialization: a structure-derived
// artifact (frozen CSR, DAG skeleton, LCA ancestor machinery) computed once
// and shared by every consuming stage, released when the last one finishes.
type PlanMatInfo struct {
	Env       string `json:"env"`  // environment description, e.g. "pag(parallel,64r)"
	What      string `json:"what"` // artifact, e.g. "dag-skeleton+lca"
	Consumers int    `json:"consumers"`
	// Reused marks a materialization that was already cached from an
	// earlier pass or run when the plan prewarmed it.
	Reused bool `json:"reused,omitempty"`
	// ReleasedAfterStage is the stage whose completion dropped the plan's
	// reference; -1 while the run is in flight.
	ReleasedAfterStage int `json:"released_after_stage"`
}

// PlanTrace is the pass-plan compiler's record of how a run was compiled:
// the stage partition, the hoisted materializations, and the savings the
// plan claims (fused passes, elided defensive clones).
type PlanTrace struct {
	Stages           []PlanStageInfo `json:"stages"`
	Materializations []PlanMatInfo   `json:"materializations,omitempty"`
	// FusedPasses counts passes that shared a stage with at least one other
	// pass (chain or scan fusion).
	FusedPasses int `json:"fused_passes"`
	// ScansFused counts sibling scan passes that shared one loop beyond the
	// first of each group — the traversals the fusion saved.
	ScansFused int `json:"scans_fused"`
	// ClonesElided counts defensive copy-on-fan-out clones proven
	// unnecessary because every consumer in the stage is pure.
	ClonesElided int `json:"clones_elided"`
}

func newExecutionTrace(workers int, wall time.Duration, spans []PassSpan) *ExecutionTrace {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Node < spans[j].Node
	})
	return &ExecutionTrace{Workers: workers, Wall: wall, Spans: spans}
}

// Span returns the span of the first executed pass with the given name,
// or nil.
func (t *ExecutionTrace) Span(pass string) *PassSpan {
	for i := range t.Spans {
		if t.Spans[i].Pass == pass {
			return &t.Spans[i]
		}
	}
	return nil
}

// Busy returns the summed pass wall time — together with Wall it bounds the
// achieved parallelism (Busy/Wall workers were active on average).
func (t *ExecutionTrace) Busy() time.Duration {
	var sum time.Duration
	for _, s := range t.Spans {
		sum += s.Wall()
	}
	return sum
}

// MaxParallelism returns the largest number of passes that were in flight
// simultaneously.
func (t *ExecutionTrace) MaxParallelism() int {
	type ev struct {
		at    time.Duration
		delta int
	}
	evs := make([]ev, 0, 2*len(t.Spans))
	for _, s := range t.Spans {
		evs = append(evs, ev{s.Start, 1}, ev{s.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta // close before open at the same instant
	})
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// Write renders the trace as an aligned text table: one row per pass with
// worker id, start offset, duration and set sizes, followed by pool totals.
func (t *ExecutionTrace) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== execution trace (%d workers, wall %s, busy %s, max parallel %d) ==\n",
		t.Workers, fmtDur(t.Wall), fmtDur(t.Busy()), t.MaxParallelism()); err != nil {
		return err
	}
	rows := [][]string{{"pass", "node", "worker", "start", "wall", "in", "out", "err"}}
	for _, s := range t.Spans {
		rows = append(rows, []string{
			s.Pass,
			fmt.Sprintf("%d", s.Node),
			fmt.Sprintf("%d", s.Worker),
			fmtDur(s.Start),
			fmtDur(s.Wall()),
			sizesString(s.InSizes),
			sizesString(s.OutSizes),
			s.Err,
		})
	}
	writeAligned(w, rows)
	if t.Plan != nil {
		if err := t.Plan.write(w); err != nil {
			return err
		}
	}
	if len(t.Failures) > 0 {
		if _, err := fmt.Fprintf(w, "== degraded: %d pass failure(s) ==\n", len(t.Failures)); err != nil {
			return err
		}
		for _, f := range t.Failures {
			if _, err := fmt.Fprintf(w, "node %d %s [%s]: %s\n", f.Node, f.Pass, f.Reason, f.Err); err != nil {
				return err
			}
		}
	}
	return nil
}

// write renders the plan section of a trace: the stage partition with
// fusion kinds and traversal decisions, then hoisted materializations.
func (p *PlanTrace) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== plan (%d stages, %d fused passes, %d scans fused, %d clones elided) ==\n",
		len(p.Stages), p.FusedPasses, p.ScansFused, p.ClonesElided); err != nil {
		return err
	}
	rows := [][]string{{"stage", "kind", "passes", "traversal"}}
	for _, st := range p.Stages {
		tr := "-"
		if len(st.Traversals) > 0 {
			tr = strings.Join(st.Traversals, "; ")
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", st.Stage),
			st.Kind,
			strings.Join(st.Passes, " + "),
			tr,
		})
	}
	writeAligned(w, rows)
	for _, m := range p.Materializations {
		reuse := "built"
		if m.Reused {
			reuse = "reused"
		}
		if _, err := fmt.Fprintf(w, "materialized %s for %s: %s, %d consumer(s), released after stage %d\n",
			m.What, m.Env, reuse, m.Consumers, m.ReleasedAfterStage); err != nil {
			return err
		}
	}
	return nil
}

func sizesString(sizes []int) string {
	if len(sizes) == 0 {
		return "-"
	}
	parts := make([]string, len(sizes))
	for i, n := range sizes {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, ",")
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// WriteTrace renders t to w; a nil trace writes a short notice instead. It
// is the package-level convenience the report module and cmd/pflow share.
func WriteTrace(w io.Writer, t *ExecutionTrace) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "(no execution trace: no PerFlowGraph has run)")
		return err
	}
	return t.Write(w)
}
