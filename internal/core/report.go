package core

import (
	"fmt"
	"io"
	"strconv"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// Report renders analysis results (paper §2.2: "The report module provides
// both human-readable texts and visualized graphs"). Attrs names the
// columns: metric names ("time", "wait", ...), string attribute keys
// ("debug", "breakdown"), or the specials "name", "label", "rank",
// "comm-info".
type Report struct {
	Title string
	Attrs []string
	// MaxRows caps the table (0 = all).
	MaxRows int
}

// WriteSet renders one set as an aligned text table. Every column's
// metric and attribute columns are resolved once, and the report is
// formatted into the buffer of the table's cells, after them, and written
// with one Write.
func (r *Report) WriteSet(w io.Writer, s *Set) error {
	attrs := r.Attrs
	if len(attrs) == 0 {
		attrs = []string{"name", "time", "debug"}
	}
	n := len(s.V)
	if r.MaxRows > 0 && n > r.MaxRows {
		n = r.MaxRows
	}
	g := s.PAG.G
	cells := make([]cell, len(attrs))
	t := table{ncol: len(attrs), ends: make([]int, 0, (n+1)*len(attrs))}
	for j, a := range attrs {
		cells[j] = columnCell(g, a)
		t.add(append(t.buf, a...))
	}
	for _, vid := range s.V[:n] {
		for _, c := range cells {
			t.add(c(t.buf, vid))
		}
	}
	b := t.buf
	if r.Title != "" {
		b = append(append(append(b, "== "...), r.Title...), " ==\n"...)
	}
	b = t.appendTo(b)
	if r.MaxRows > 0 && len(s.V) > r.MaxRows {
		b = append(strconv.AppendInt(append(b, "... ("...), int64(len(s.V)-r.MaxRows), 10), " more)\n"...)
	}
	disp := displayCell(s.PAG)
	lint, lintHeader := g.AttrColumn(pag.AttrLint), false
	for _, vid := range s.V {
		if f := lint.At(vid); f != "" {
			if !lintHeader {
				b, lintHeader = append(b, "-- lint findings --\n"...), true
			}
			b = append(append(append(disp(b, vid), ": "...), f...), '\n')
		}
	}
	if len(s.E) > 0 {
		b = append(strconv.AppendInt(append(b, "-- "...), int64(len(s.E)), 10), " edges --\n"...)
		m := len(s.E)
		if r.MaxRows > 0 && m > r.MaxRows {
			m = r.MaxRows
		}
		for _, eid := range s.E[:m] {
			e := g.Edge(eid)
			b = append(append(b, pag.EdgeLabelName(e.Label)...), ' ')
			b = append(disp(b, e.Src), " -> "...)
			b = disp(b, e.Dst)
			if wt := e.Metric(pag.MetricWait); wt > 0 {
				b = strconv.AppendFloat(append(b, "  wait="...), wt, 'f', 1, 64)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b[len(t.buf):])
	return err
}

// cell appends a vertex's value of one report column to b.
type cell func(b []byte, v graph.VertexID) []byte

// displayCell renders a vertex as "name@pR.tT (debug)" from columns
// resolved once: the rank suffix only in a parallel view and only for
// vertices with a rank, the thread only when it is not -1.
func displayCell(env *pag.PAG) cell {
	g := env.G
	rank, thread, debug := g.MetricColumn(pag.MetricRank), g.MetricColumn(pag.MetricThread), g.AttrColumn(pag.AttrDebug)
	return func(b []byte, v graph.VertexID) []byte {
		b = append(b, g.Vertex(v).Name...)
		if r, ok := rank.Lookup(v); env.View == pag.Parallel && ok {
			b = strconv.AppendInt(append(b, "@p"...), int64(int(r)), 10)
			if t := int(thread.At(v)); t >= 0 {
				b = strconv.AppendInt(append(b, ".t"...), int64(t), 10)
			}
		}
		if dbg := debug.At(v); dbg != "" {
			b = append(append(append(b, " ("...), dbg...), ')')
		}
		return b
	}
}

// columnCell returns the cell of report column a, its columns resolved
// once: a special ("name", "label", "rank", "comm-info"), or a key read as
// a string attribute when the vertex has it, else as a scalar metric, else
// "-"; "debug-info" and "dbg-info" name the debug attribute.
func columnCell(g *graph.Graph, a string) cell {
	switch a {
	case "name":
		return func(b []byte, v graph.VertexID) []byte { return append(b, g.Vertex(v).Name...) }
	case "label":
		return func(b []byte, v graph.VertexID) []byte { return append(b, pag.VertexLabelName(g.Vertex(v).Label)...) }
	case "rank":
		rank := g.MetricColumn(pag.MetricRank)
		return func(b []byte, v graph.VertexID) []byte {
			if r, ok := rank.Lookup(v); ok || g.Vertex(v).NumMetrics() > 0 {
				return strconv.AppendInt(b, int64(int(r)), 10)
			}
			return append(b, '-')
		}
	case "comm-info":
		bytes, count := g.MetricColumn(pag.MetricBytes), g.MetricColumn(pag.MetricCount)
		return func(b []byte, v graph.VertexID) []byte {
			if x := bytes.At(v); x > 0 {
				cnt, per := count.At(v), 1.0
				if cnt > 1 {
					per = cnt
				}
				b = strconv.AppendFloat(b, x/per, 'f', 0, 64)
				return strconv.AppendInt(append(b, "B x"...), int64(int(cnt)), 10)
			}
			return append(b, '-')
		}
	case "debug-info", "dbg-info":
		a = pag.AttrDebug
	}
	attr, metric := g.AttrColumn(a), g.MetricColumn(a)
	return func(b []byte, v graph.VertexID) []byte {
		if s, ok := attr.Lookup(v); ok {
			return append(b, s...)
		}
		if m, ok := metric.Lookup(v); ok {
			return appendMetric(b, m)
		}
		return append(b, '-')
	}
}

// appendMetric appends a metric value the way every report prints one:
// three significant digits for magnitudes below 0.01 or from 1e7 up, an
// integer when the value is one, else two decimals.
func appendMetric(b []byte, m float64) []byte {
	switch {
	case m != 0 && (m < 0.01 && m > -0.01 || m >= 1e7 || m <= -1e7):
		return strconv.AppendFloat(b, m, 'g', 3, 64)
	case m == float64(int64(m)):
		return strconv.AppendInt(b, int64(m), 10)
	default:
		return strconv.AppendFloat(b, m, 'f', 2, 64)
	}
}

// table accumulates an aligned text table's cells in one buffer, row by
// row, ncol cells a row.
type table struct {
	ncol int
	buf  []byte
	ends []int // end offset in buf of each cell, row-major
}

// add takes buf extended by the next cell's bytes: t.add(append(t.buf, s...)).
func (t *table) add(buf []byte) {
	t.buf = buf
	t.ends = append(t.ends, len(buf))
}

// appendTo appends the table to b: columns padded to their widest cell
// and joined by two spaces, each line's trailing spaces trimmed.
func (t *table) appendTo(b []byte) []byte {
	widths := make([]int, t.ncol)
	start := 0
	for i, e := range t.ends {
		widths[i%t.ncol] = max(widths[i%t.ncol], e-start)
		start = e
	}
	start, line := 0, 0
	for i, e := range t.ends {
		j := i % t.ncol
		if j == 0 {
			line = len(b)
		} else {
			b = append(b, "  "...)
		}
		b = append(b, t.buf[start:e]...)
		if j < t.ncol-1 {
			for k := e - start; k < widths[j]; k++ {
				b = append(b, ' ')
			}
		} else {
			for len(b) > line && b[len(b)-1] == ' ' {
				b = b[:len(b)-1]
			}
			b = append(b, '\n')
		}
		start = e
	}
	return b
}

// writeAligned writes rows of equal length as an aligned table.
func writeAligned(w io.Writer, rows [][]string) {
	t := table{ncol: len(rows[0])}
	for _, row := range rows {
		for _, c := range row {
			t.add(append(t.buf, c...))
		}
	}
	w.Write(t.appendTo(nil))
}

// ReportPass renders every input set to w and forwards them unchanged, so
// a report can sit mid-graph.
func ReportPass(w io.Writer, title string, attrs []string, maxRows int) Pass {
	return PassFunc{
		PassName: "report",
		NumIn:    -1,
		Fn: func(in []*Set) ([]*Set, error) {
			rep := &Report{Title: title, Attrs: attrs, MaxRows: maxRows}
			for i, s := range in {
				if len(in) > 1 {
					fmt.Fprintf(w, "[set %d]\n", i)
				}
				if err := rep.WriteSet(w, s); err != nil {
					return nil, err
				}
			}
			return in, nil
		},
	}
}

// DOT renders the set's environment with the set's vertices and edges
// highlighted, matching the paper's figures (boxes for detected vertices,
// bold red for detected edges).
func DOT(s *Set, name string) string {
	hiV := map[graph.VertexID]bool{}
	for _, v := range s.V {
		hiV[v] = true
	}
	hiE := map[graph.EdgeID]bool{}
	for _, e := range s.E {
		hiE[e] = true
	}
	return s.PAG.G.DOT(name, hiV, hiE)
}
