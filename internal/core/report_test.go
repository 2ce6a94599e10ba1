package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

func reportEnv() (*pag.PAG, *Set) {
	g := graph.New(3, 2)
	a := g.AddVertex("main", pag.VertexFunc)
	b := g.AddVertex("MPI_Send", pag.VertexCommCall)
	c := g.AddVertex("kernel", pag.VertexCompute)
	g.Vertex(a).SetAttr(pag.AttrDebug, "main.c:1")
	g.Vertex(b).SetAttr(pag.AttrDebug, "main.c:9")
	g.Vertex(b).SetMetric(pag.MetricExclTime, 12.5)
	g.Vertex(b).SetMetric(pag.MetricBytes, 2048)
	g.Vertex(b).SetMetric(pag.MetricCount, 4)
	g.Vertex(b).SetMetric(pag.MetricWait, 3)
	g.Vertex(c).SetMetric(pag.MetricExclTime, 100)
	e1 := g.AddEdge(a, b, pag.EdgeIntraProc)
	g.AddEdge(a, c, pag.EdgeIntraProc)
	g.Edge(e1).SetMetric(pag.MetricWait, 7)
	env := &pag.PAG{G: g, NRanks: 2}
	s := AllVertices(env)
	s.E = []graph.EdgeID{e1}
	return env, s
}

func TestReportColumnsAndSpecials(t *testing.T) {
	_, s := reportEnv()
	var buf bytes.Buffer
	rep := &Report{Title: "cols", Attrs: []string{"name", "label", "comm-info", "debug-info", "etime", "missing"}}
	if err := rep.WriteSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== cols ==",
		"MPI_Send", "comm", // name + label rendering
		"512B x4",          // comm-info: bytes/count
		"main.c:9",         // debug-info alias
		"12.50",            // metric formatting
		"-",                // missing attr placeholder
		"-- 1 edges --",    // edge section
		"intra-procedural", // edge label
		"wait=7.0",         // edge metric
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportMaxRowsTruncation(t *testing.T) {
	env := fakeEnv("a", "b", "c", "d", "e")
	var buf bytes.Buffer
	rep := &Report{Attrs: []string{"name"}, MaxRows: 2}
	if err := rep.WriteSet(&buf, AllVertices(env)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(3 more)") {
		t.Errorf("truncation marker missing:\n%s", buf.String())
	}
}

func TestReportDefaultAttrs(t *testing.T) {
	_, s := reportEnv()
	var buf bytes.Buffer
	rep := &Report{}
	if err := rep.WriteSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "name") || !strings.Contains(buf.String(), "debug") {
		t.Errorf("default columns missing:\n%s", buf.String())
	}
}

func TestFormatMetricShapes(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		42:       "42",
		12.5:     "12.50",
		0.001:    "0.001",
		12345678: "1.23e+07",
	}
	for in, want := range cases {
		if got := string(appendMetric(nil, in)); got != want {
			t.Errorf("appendMetric(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestJSONReportRoundTrips(t *testing.T) {
	_, s := reportEnv()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "rt", s); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Title != "rt" || len(rep.Vertices) != 3 || len(rep.Edges) != 1 {
		t.Errorf("envelope wrong: %+v", rep)
	}
	foundSend := false
	for _, v := range rep.Vertices {
		if v.Name == "MPI_Send" {
			foundSend = true
			if v.Label != "comm" || v.Debug != "main.c:9" {
				t.Errorf("vertex fields wrong: %+v", v)
			}
			if v.Metrics[pag.MetricExclTime] != 12.5 {
				t.Errorf("metrics wrong: %+v", v.Metrics)
			}
		}
	}
	if !foundSend {
		t.Error("MPI_Send missing from JSON")
	}
	if rep.Edges[0].Label != "intra-procedural" || rep.Edges[0].Metrics[pag.MetricWait] != 7 {
		t.Errorf("edge wrong: %+v", rep.Edges[0])
	}
}

func TestJSONReportPassForwards(t *testing.T) {
	_, s := reportEnv()
	var buf bytes.Buffer
	g := NewPerFlowGraph()
	src := g.AddSource("src", s)
	jp := g.AddPass(JSONReportPass(&buf, "pipe"))
	g.Pipe(src, jp)
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if jp.Output().Len() != s.Len() {
		t.Error("JSON pass should forward its input")
	}
	if !strings.Contains(buf.String(), `"title": "pipe"`) {
		t.Errorf("JSON not written:\n%s", buf.String())
	}
}

func TestParallelViewVertexDisplay(t *testing.T) {
	g := graph.New(1, 0)
	v := g.AddVertex("MPI_Wait", pag.VertexCommCall)
	g.Vertex(v).SetMetric(pag.MetricRank, 3)
	g.Vertex(v).SetMetric(pag.MetricThread, 1)
	g.Vertex(v).SetAttr(pag.AttrDebug, "x.c:5")
	env := &pag.PAG{G: g, View: pag.Parallel, NRanks: 4}
	got := string(displayCell(env)(nil, v))
	if got != "MPI_Wait@p3.t1 (x.c:5)" {
		t.Errorf("display = %q", got)
	}
}
