package core

import (
	"encoding/json"
	"io"

	"perflow/internal/pag"
)

// JSON reporting: machine-readable analysis results for downstream tooling
// (the paper's report module emits "human-readable texts and visualized
// graphs"; JSON is the third output format this implementation adds).

// JSONVertex is one vertex of a set rendered to JSON.
type JSONVertex struct {
	ID      int                `json:"id"`
	Name    string             `json:"name"`
	Label   string             `json:"label"`
	Debug   string             `json:"debug,omitempty"`
	Rank    *int               `json:"rank,omitempty"`
	Thread  *int               `json:"thread,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Attrs   map[string]string  `json:"attrs,omitempty"`
}

// JSONEdge is one edge of a set rendered to JSON.
type JSONEdge struct {
	Src     int                `json:"src"`
	Dst     int                `json:"dst"`
	Label   string             `json:"label"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// JSONReport is the envelope for one reported set.
type JSONReport struct {
	Title    string       `json:"title,omitempty"`
	View     string       `json:"view"`
	NumRanks int          `json:"ranks"`
	Vertices []JSONVertex `json:"vertices"`
	Edges    []JSONEdge   `json:"edges,omitempty"`
}

// BuildJSONReport converts a set into the JSON envelope.
func BuildJSONReport(title string, s *Set) *JSONReport {
	rep := &JSONReport{Title: title, View: s.PAG.View.String(), NumRanks: s.PAG.NRanks}
	for _, vid := range s.V {
		v := s.PAG.G.Vertex(vid)
		jv := JSONVertex{
			ID:    int(vid),
			Name:  v.Name,
			Label: pag.VertexLabelName(v.Label),
			Debug: v.Attr(pag.AttrDebug),
		}
		if n := v.NumMetrics(); n > 0 {
			jv.Metrics = make(map[string]float64, n)
			v.EachMetric(func(k string, x float64) {
				switch k {
				case pag.MetricRank:
					r := int(x)
					jv.Rank = &r
				case pag.MetricThread:
					t := int(x)
					jv.Thread = &t
				default:
					jv.Metrics[k] = x
				}
			})
		}
		if n := v.NumAttrs(); n > 0 {
			jv.Attrs = make(map[string]string, n)
			v.EachAttr(func(k, x string) {
				if k != pag.AttrDebug {
					jv.Attrs[k] = x
				}
			})
		}
		rep.Vertices = append(rep.Vertices, jv)
	}
	for _, eid := range s.E {
		e := s.PAG.G.Edge(eid)
		je := JSONEdge{Src: int(e.Src), Dst: int(e.Dst), Label: pag.EdgeLabelName(e.Label)}
		if n := e.NumMetrics(); n > 0 {
			je.Metrics = make(map[string]float64, n)
			e.EachMetric(func(k string, x float64) { je.Metrics[k] = x })
		}
		rep.Edges = append(rep.Edges, je)
	}
	return rep
}

// WriteJSON renders the set as indented JSON.
func WriteJSON(w io.Writer, title string, s *Set) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildJSONReport(title, s))
}

// JSONReportPass renders every input set as JSON and forwards them.
func JSONReportPass(w io.Writer, title string) Pass {
	return PassFunc{
		PassName: "json_report",
		NumIn:    -1,
		Fn: func(in []*Set) ([]*Set, error) {
			for _, s := range in {
				if err := WriteJSON(w, title, s); err != nil {
					return nil, err
				}
			}
			return in, nil
		},
	}
}
