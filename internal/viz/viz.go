// Package viz renders simulated executions and parallel-view analysis
// results as terminal graphics: an ASCII timeline (Gantt chart) of per-rank
// activity, and a process-grid rendering of the parallel view in the style
// of the paper's Figures 10, 12 and 16 — ranks on the horizontal axis,
// control/data flow top-to-bottom, detected vertices boxed.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"perflow/internal/graph"
	"perflow/internal/pag"
	"perflow/internal/trace"
)

// TimelineOptions controls Timeline rendering.
type TimelineOptions struct {
	Width    int // character columns for the time axis (default 96)
	MaxRanks int // cap on rendered ranks (default 16)
}

// Timeline renders the run as an ASCII Gantt chart: one row per rank,
// compute as '#', communication as '.', waiting as '~', thread regions as
// '='. It makes imbalance and propagation visible at a glance: a stair of
// '~' under a '#' block is the paper's Figure 10 in one screen.
func Timeline(w io.Writer, run *trace.Run, opts TimelineOptions) {
	width := opts.Width
	if width <= 0 {
		width = 96
	}
	maxRanks := opts.MaxRanks
	if maxRanks <= 0 {
		maxRanks = 16
	}
	total := run.TotalTime()
	if total <= 0 {
		fmt.Fprintln(w, "(empty run)")
		return
	}
	scale := float64(width) / total
	nr := len(run.Events)
	step := 1
	if nr > maxRanks {
		step = (nr + maxRanks - 1) / maxRanks
	}
	fmt.Fprintf(w, "timeline: %.2f ms total, %d ranks (every %d shown), '#'=compute '='=threads 'K'=GPU '.'=comm '~'=wait\n",
		total/1000, nr, step)
	for r := 0; r < nr; r += step {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, e := range run.Events[r] {
			if e.Thread >= 0 {
				continue // thread detail is covered by the region event
			}
			var glyph byte
			switch {
			case e.Kind == trace.KindCompute:
				glyph = '#'
			case e.Kind == trace.KindRegion:
				glyph = '='
			case e.Kind == trace.KindKernel:
				glyph = 'K'
			case e.Wait > e.Dur()/2:
				glyph = '~'
			default:
				glyph = '.'
			}
			from := int(e.Start * scale)
			to := int(e.End * scale)
			if to >= width {
				to = width - 1
			}
			for i := from; i <= to && i < width; i++ {
				// Wait glyphs never overwrite compute (compute is the
				// interesting foreground).
				if row[i] == ' ' || (row[i] == '~' && glyph != ' ') || glyph == '#' {
					row[i] = glyph
				}
			}
		}
		fmt.Fprintf(w, "p%-5d |%s|\n", r, string(row))
	}
}

// ParallelViewOptions controls ParallelView rendering.
type ParallelViewOptions struct {
	// Highlight marks vertices to box (the analysis output set).
	Highlight map[graph.VertexID]bool
	// HighlightEdges marks dependence edges to draw as arrows.
	HighlightEdges map[graph.EdgeID]bool
	// MaxRanks caps the rendered process columns (default 8).
	MaxRanks int
	// MaxRows caps the rendered flow depth (default 24).
	MaxRows int
}

// ParallelView renders a parallel-view PAG as the paper's figures do:
// process columns left to right, each column listing its flow vertices top
// to bottom in flow order, highlighted vertices in [brackets], and the
// highlighted cross-process dependences listed beneath as arrows.
func ParallelView(w io.Writer, p *pag.PAG, opts ParallelViewOptions) {
	if p.View != pag.Parallel {
		fmt.Fprintln(w, "(not a parallel view)")
		return
	}
	maxRanks := opts.MaxRanks
	if maxRanks <= 0 {
		maxRanks = 8
	}
	maxRows := opts.MaxRows
	if maxRows <= 0 {
		maxRows = 24
	}

	// Collect rank-level flows in vertex-ID order (construction order is
	// flow order).
	flows := map[int][]graph.VertexID{}
	var ranks []int
	for i := 0; i < p.G.NumVertices(); i++ {
		v := p.G.Vertex(graph.VertexID(i))
		t, hasT := v.LookupMetric(pag.MetricThread)
		r, hasR := v.LookupMetric(pag.MetricRank)
		if !hasT || !hasR || int(t) != -1 {
			continue
		}
		rank := int(r)
		if _, seen := flows[rank]; !seen {
			ranks = append(ranks, rank)
		}
		flows[rank] = append(flows[rank], graph.VertexID(i))
	}
	sort.Ints(ranks)
	if len(ranks) > maxRanks {
		ranks = ranks[:maxRanks]
	}

	const colWidth = 18
	var head strings.Builder
	for _, r := range ranks {
		fmt.Fprintf(&head, "%-*s", colWidth, fmt.Sprintf("process %d", r))
	}
	fmt.Fprintln(w, head.String())
	fmt.Fprintln(w, strings.Repeat("-", colWidth*len(ranks)))

	depth := 0
	for _, r := range ranks {
		if len(flows[r]) > depth {
			depth = len(flows[r])
		}
	}
	if depth > maxRows {
		depth = maxRows
	}
	for row := 0; row < depth; row++ {
		var line strings.Builder
		for _, r := range ranks {
			cell := ""
			if row < len(flows[r]) {
				vid := flows[r][row]
				name := p.G.Vertex(vid).Name
				if len(name) > colWidth-4 {
					name = name[:colWidth-4]
				}
				if opts.Highlight != nil && opts.Highlight[vid] {
					cell = "[" + name + "]"
				} else {
					cell = " " + name
				}
			}
			fmt.Fprintf(&line, "%-*s", colWidth, cell)
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}

	// Highlighted dependence edges as arrows.
	if len(opts.HighlightEdges) > 0 {
		fmt.Fprintln(w, "dependences:")
		var eids []graph.EdgeID
		for e := range opts.HighlightEdges {
			eids = append(eids, e)
		}
		sort.Slice(eids, func(i, j int) bool { return eids[i] < eids[j] })
		for i, eid := range eids {
			if i == 20 {
				fmt.Fprintf(w, "  ... (%d more)\n", len(eids)-20)
				break
			}
			e := p.G.Edge(eid)
			src, dst := p.G.Vertex(e.Src), p.G.Vertex(e.Dst)
			fmt.Fprintf(w, "  %s@p%d ==> %s@p%d (%s",
				src.Name, int(src.Metric(pag.MetricRank)),
				dst.Name, int(dst.Metric(pag.MetricRank)),
				pag.EdgeLabelName(e.Label))
			if wt := e.Metric(pag.MetricWait); wt > 0 {
				fmt.Fprintf(w, ", wait %.1fus", wt)
			}
			fmt.Fprintln(w, ")")
		}
	}
}

// Histogram renders a per-rank bar chart of a metric across a vertex
// vector — the "which processes hurt" view.
func Histogram(w io.Writer, title string, values []float64, width int) {
	if width <= 0 {
		width = 50
	}
	var maxv float64
	for _, v := range values {
		if v > maxv {
			maxv = v
		}
	}
	fmt.Fprintf(w, "%s (max %.1f)\n", title, maxv)
	if maxv <= 0 {
		return
	}
	for r, v := range values {
		n := int(v / maxv * float64(width))
		fmt.Fprintf(w, "p%-4d |%s %.1f\n", r, strings.Repeat("█", n), v)
	}
}
