// Package viz renders simulated executions as terminal graphics: an ASCII
// timeline (Gantt chart) of per-rank activity and a metric histogram.
package viz

import (
	"fmt"
	"io"
	"strings"

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
