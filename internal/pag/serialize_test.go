package pag

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"perflow/internal/graph"
	"perflow/internal/ir"
)

func TestPAGSaveLoadTopDown(t *testing.T) {
	p := testProgram(t)
	td := BuildTopDown(p)
	run := testRun(t, p, 4)
	td.EmbedRun(run, PMUModel{})

	var buf bytes.Buffer
	if err := td.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf, p)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.View != TopDown || got.NRanks != td.NRanks {
		t.Errorf("header round trip wrong: %v %d", got.View, got.NRanks)
	}
	nv1, ne1 := td.Size()
	nv2, ne2 := got.Size()
	if nv1 != nv2 || ne1 != ne2 {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", nv1, ne1, nv2, ne2)
	}
	// Node mapping survives: VertexOf works after reload.
	kernelID := p.Function("foo").Body[0].(*ir.Compute).ID()
	v1, v2 := td.VertexOf(kernelID), got.VertexOf(kernelID)
	if v1 != v2 || v2 == graph.NoVertex {
		t.Errorf("VertexOf after reload: %d vs %d", v1, v2)
	}
	// Metrics survive.
	if got.G.Vertex(v2).Metric(MetricExclTime) != td.G.Vertex(v1).Metric(MetricExclTime) {
		t.Error("metrics lost in round trip")
	}
}

func TestPAGSaveLoadParallel(t *testing.T) {
	p := testProgram(t)
	run := testRun(t, p, 4)
	pv := BuildParallel(run)

	var buf bytes.Buffer
	if err := pv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.View != Parallel {
		t.Fatal("view lost")
	}
	// Flow index rebuilt: per-rank lookups work.
	kernelID := p.Function("foo").Body[0].(*ir.Compute).ID()
	for r := int32(0); r < 4; r++ {
		if got.FlowVertex(r, -1, kernelID) == graph.NoVertex {
			t.Errorf("flow vertex for rank %d lost", r)
		}
	}
	// Synthetic resource vertices keep NoNode mapping.
	for i := 0; i < got.G.NumVertices(); i++ {
		if got.G.Vertex(graph.VertexID(i)).Label == VertexResource && got.NodeOf(graph.VertexID(i)) != ir.NoNode {
			t.Error("resource vertex gained a node mapping")
		}
	}
}

func TestPAGSaveLoadFile(t *testing.T) {
	p := testProgram(t)
	td := BuildTopDown(p)
	path := t.TempDir() + "/x.pag"
	if err := td.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, nil) // no program attached
	if err != nil {
		t.Fatal(err)
	}
	nv, _ := got.Size()
	if nv == 0 {
		t.Error("empty PAG from file")
	}
	if _, err := LoadFile(path+"-missing", nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestPAGLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3}), nil); err == nil {
		t.Error("truncated input should error")
	}
	bad := make([]byte, 24)
	if _, err := Load(bytes.NewReader(bad), nil); err == nil {
		t.Error("bad magic should error")
	}
	// A node ID far beyond any program would size the flow index.
	var buf bytes.Buffer
	if err := BuildParallel(testRun(t, testProgram(t), 2)).Save(&buf); err != nil {
		t.Fatal(err)
	}
	huge := buf.Bytes()
	binary.LittleEndian.PutUint32(huge[24:], 1<<30)
	if _, err := Load(bytes.NewReader(huge), nil); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("node id 1<<30: err = %v, want out of range", err)
	}
}
