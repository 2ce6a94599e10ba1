package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

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

// WriteSet renders one set as an aligned text table.
func (r *Report) WriteSet(w io.Writer, s *Set) error {
	attrs := r.Attrs
	if len(attrs) == 0 {
		attrs = []string{"name", "time", "debug"}
	}
	if r.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", r.Title); err != nil {
			return err
		}
	}
	rows := [][]string{attrs}
	n := len(s.V)
	if r.MaxRows > 0 && n > r.MaxRows {
		n = r.MaxRows
	}
	for i := 0; i < n; i++ {
		v := s.PAG.G.Vertex(s.V[i])
		row := make([]string, len(attrs))
		for j, a := range attrs {
			row[j] = renderAttr(s.PAG, v, a)
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	if r.MaxRows > 0 && len(s.V) > r.MaxRows {
		fmt.Fprintf(w, "... (%d more)\n", len(s.V)-r.MaxRows)
	}
	var lintRows []string
	for _, vid := range s.V {
		v := s.PAG.G.Vertex(vid)
		if f := v.Attr(pag.AttrLint); f != "" {
			lintRows = append(lintRows, fmt.Sprintf("%s: %s", vertexDisplay(s.PAG, v), f))
		}
	}
	if len(lintRows) > 0 {
		fmt.Fprintln(w, "-- lint findings --")
		for _, row := range lintRows {
			fmt.Fprintln(w, row)
		}
	}
	if len(s.E) > 0 {
		fmt.Fprintf(w, "-- %d edges --\n", len(s.E))
		m := len(s.E)
		if r.MaxRows > 0 && m > r.MaxRows {
			m = r.MaxRows
		}
		for i := 0; i < m; i++ {
			e := s.PAG.G.Edge(s.E[i])
			src, dst := s.PAG.G.Vertex(e.Src), s.PAG.G.Vertex(e.Dst)
			fmt.Fprintf(w, "%s %s -> %s", pag.EdgeLabelName(e.Label), vertexDisplay(s.PAG, src), vertexDisplay(s.PAG, dst))
			if wt := e.Metric(pag.MetricWait); wt > 0 {
				fmt.Fprintf(w, "  wait=%.1f", wt)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func vertexDisplay(env *pag.PAG, v *graph.Vertex) string {
	s := v.Name
	if env.View == pag.Parallel {
		if _, ok := v.LookupMetric(pag.MetricRank); ok {
			r := int(v.Metric(pag.MetricRank))
			t := int(v.Metric(pag.MetricThread))
			if t >= 0 {
				s = fmt.Sprintf("%s@p%d.t%d", s, r, t)
			} else {
				s = fmt.Sprintf("%s@p%d", s, r)
			}
		}
	}
	if dbg := v.Attr(pag.AttrDebug); dbg != "" {
		s += " (" + dbg + ")"
	}
	return s
}

func renderAttr(env *pag.PAG, v *graph.Vertex, a string) string {
	switch a {
	case "name":
		return v.Name
	case "label":
		return pag.VertexLabelName(v.Label)
	case "rank":
		if v.NumMetrics() == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", int(v.Metric(pag.MetricRank)))
	case "comm-info":
		if b := v.Metric(pag.MetricBytes); b > 0 {
			return fmt.Sprintf("%.0fB x%d", b/maxf(v.Metric(pag.MetricCount), 1), int(v.Metric(pag.MetricCount)))
		}
		return "-"
	case "debug-info", "dbg-info":
		a = pag.AttrDebug
	}
	if s, ok := v.LookupAttr(a); ok {
		return s
	}
	if m, ok := v.LookupMetric(a); ok {
		return formatMetric(m)
	}
	return "-"
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func formatMetric(m float64) string {
	switch {
	case m != 0 && (m < 0.01 && m > -0.01 || m >= 1e7 || m <= -1e7):
		return fmt.Sprintf("%.3g", m)
	case m == float64(int64(m)):
		return fmt.Sprintf("%d", int64(m))
	default:
		return fmt.Sprintf("%.2f", m)
	}
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
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

// SummarizeByName aggregates a set's vertices by name (summing the metric),
// sorted descending — the shape of mpiP-style statistical reports.
func SummarizeByName(s *Set, metric string) []NameTotal {
	totals := map[string]float64{}
	for _, vid := range s.V {
		v := s.PAG.G.Vertex(vid)
		totals[v.Name] += v.Metric(metric)
	}
	out := make([]NameTotal, 0, len(totals))
	for n, t := range totals {
		out = append(out, NameTotal{Name: n, Total: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// NameTotal is one row of SummarizeByName.
type NameTotal struct {
	Name  string
	Total float64
}
