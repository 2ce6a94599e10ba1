package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Randomized differential test of the property store: every op sequence is
// applied both to a Graph (through its accessor methods only) and to a
// plain map-of-maps reference model, and every read, the sorted key order of
// the Each* iterators, Clone, DAGCopy, Diff/DiffNormalized and a
// WriteTo→ReadFrom round trip are compared against the model.

var (
	refMetricKeys = []string{"a", "b", "time", "wait", "z"}
	refAttrKeys   = []string{"debug", "kind", "x"}
	refAttrVals   = []string{"", "f.c:1", "f.c:2", "comm"}
	refNames      = []string{"main", "f", "g", "MPI_Send"}
)

type refProps struct {
	m    map[string]float64
	vec  map[string][]float64
	attr map[string]string
}

func newRefProps() refProps {
	return refProps{m: map[string]float64{}, vec: map[string][]float64{}, attr: map[string]string{}}
}

func (p refProps) clone() refProps {
	c := newRefProps()
	for k, x := range p.m {
		c.m[k] = x
	}
	for k, v := range p.vec {
		c.vec[k] = append([]float64(nil), v...)
	}
	for k, s := range p.attr {
		c.attr[k] = s
	}
	return c
}

type refVertex struct {
	name  string
	label int
	refProps
}

type refEdge struct {
	src, dst VertexID
	label    int
	refProps
}

type refGraph struct {
	vs []refVertex
	es []refEdge
}

func (r *refGraph) clone() *refGraph {
	c := &refGraph{}
	for _, v := range r.vs {
		c.vs = append(c.vs, refVertex{v.name, v.label, v.refProps.clone()})
	}
	for _, e := range r.es {
		c.es = append(c.es, refEdge{e.src, e.dst, e.label, e.refProps.clone()})
	}
	return c
}

// randomPropOp applies one random op to both g and r. Structural ops only
// when structural is set.
func randomPropOp(rng *rand.Rand, g *Graph, r *refGraph, structural bool) {
	if structural && (len(r.vs) == 0 || rng.Intn(8) == 0) {
		name, label := refNames[rng.Intn(len(refNames))], rng.Intn(3)
		g.AddVertex(name, label)
		r.vs = append(r.vs, refVertex{name, label, newRefProps()})
		return
	}
	if len(r.vs) == 0 {
		return
	}
	if structural && rng.Intn(6) == 0 {
		src, dst := VertexID(rng.Intn(len(r.vs))), VertexID(rng.Intn(len(r.vs)))
		label := rng.Intn(3)
		g.AddEdge(src, dst, label)
		r.es = append(r.es, refEdge{src, dst, label, newRefProps()})
		return
	}
	mk := refMetricKeys[rng.Intn(len(refMetricKeys))]
	ak := refAttrKeys[rng.Intn(len(refAttrKeys))]
	x := float64(rng.Intn(9) - 2)
	if len(r.es) > 0 && rng.Intn(3) == 0 {
		id := EdgeID(rng.Intn(len(r.es)))
		e, re := g.Edge(id), &r.es[id]
		switch rng.Intn(3) {
		case 0:
			e.SetMetric(mk, x)
			re.m[mk] = x
		case 1:
			e.SetMetric(mk, 0)
			re.m[mk] = 0
		default:
			s := refAttrVals[rng.Intn(len(refAttrVals))]
			e.SetAttr(ak, s)
			re.attr[ak] = s
		}
		return
	}
	id := VertexID(rng.Intn(len(r.vs)))
	v, rv := g.Vertex(id), &r.vs[id]
	switch rng.Intn(7) {
	case 0:
		v.SetMetric(mk, x)
		rv.m[mk] = x
	case 1:
		v.AddMetric(mk, x)
		rv.m[mk] += x
	case 2:
		v.SetMetric(mk, 0)
		rv.m[mk] = 0
	case 3:
		var vals []float64
		if n := rng.Intn(4); n > 0 {
			vals = make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(5))
			}
		}
		v.SetVec(mk, vals)
		rv.vec[mk] = append([]float64(nil), vals...)
	case 4:
		i := rng.Intn(5)
		v.AddVecAt(mk, i, x)
		vec := rv.vec[mk]
		for len(vec) <= i {
			vec = append(vec, 0)
		}
		vec[i] += x
		rv.vec[mk] = vec
	default:
		// Attributes land on only some elements: most vertices keep none.
		s := refAttrVals[rng.Intn(len(refAttrVals))]
		v.SetAttr(ak, s)
		rv.attr[ak] = s
	}
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkVertexProps compares every read of v against the model's rp.
func checkVertexProps(v *Vertex, rp refProps) error {
	for _, k := range refMetricKeys {
		want, wantOK := rp.m[k]
		if got := v.Metric(k); got != want {
			return fmt.Errorf("Metric(%q) = %v, want %v", k, got, want)
		}
		if got, ok := v.LookupMetric(k); got != want || ok != wantOK {
			return fmt.Errorf("LookupMetric(%q) = %v,%v, want %v,%v", k, got, ok, want, wantOK)
		}
		wantVec, wantVecOK := rp.vec[k]
		if got := v.Vec(k); !sameVec(got, wantVec) {
			return fmt.Errorf("Vec(%q) = %v, want %v", k, got, wantVec)
		}
		if got, ok := v.LookupVec(k); !sameVec(got, wantVec) || ok != wantVecOK {
			return fmt.Errorf("LookupVec(%q) = %v,%v, want %v,%v", k, got, ok, wantVec, wantVecOK)
		}
	}
	for _, k := range refAttrKeys {
		want, wantOK := rp.attr[k]
		if got := v.Attr(k); got != want {
			return fmt.Errorf("Attr(%q) = %q, want %q", k, got, want)
		}
		if got, ok := v.LookupAttr(k); got != want || ok != wantOK {
			return fmt.Errorf("LookupAttr(%q) = %q,%v, want %q,%v", k, got, ok, want, wantOK)
		}
	}
	var mk, vk, ak []string
	v.EachMetric(func(k string, x float64) {
		mk = append(mk, k)
		if x != rp.m[k] {
			mk = append(mk, "!value")
		}
	})
	v.EachVec(func(k string, vec []float64) {
		vk = append(vk, k)
		if !sameVec(vec, rp.vec[k]) {
			vk = append(vk, "!value")
		}
	})
	v.EachAttr(func(k, s string) {
		ak = append(ak, k)
		if s != rp.attr[k] {
			ak = append(ak, "!value")
		}
	})
	if fmt.Sprint(mk) != fmt.Sprint(sortedKeys(rp.m)) || v.NumMetrics() != len(rp.m) {
		return fmt.Errorf("EachMetric = %v (%d), want %v", mk, v.NumMetrics(), sortedKeys(rp.m))
	}
	if fmt.Sprint(vk) != fmt.Sprint(sortedKeys(rp.vec)) || v.NumVecs() != len(rp.vec) {
		return fmt.Errorf("EachVec = %v (%d), want %v", vk, v.NumVecs(), sortedKeys(rp.vec))
	}
	if fmt.Sprint(ak) != fmt.Sprint(sortedKeys(rp.attr)) || v.NumAttrs() != len(rp.attr) {
		return fmt.Errorf("EachAttr = %v (%d), want %v", ak, v.NumAttrs(), sortedKeys(rp.attr))
	}
	return nil
}

// checkEdgeProps compares every read of e against the model's rp.
func checkEdgeProps(e *Edge, rp refProps) error {
	for _, k := range refMetricKeys {
		want, wantOK := rp.m[k]
		if got, ok := e.LookupMetric(k); got != want || ok != wantOK || e.Metric(k) != want {
			return fmt.Errorf("edge LookupMetric(%q) = %v,%v, want %v,%v", k, got, ok, want, wantOK)
		}
	}
	for _, k := range refAttrKeys {
		want, wantOK := rp.attr[k]
		if got, ok := e.LookupAttr(k); got != want || ok != wantOK || e.Attr(k) != want {
			return fmt.Errorf("edge LookupAttr(%q) = %q,%v, want %q,%v", k, got, ok, want, wantOK)
		}
	}
	var mk, ak []string
	e.EachMetric(func(k string, x float64) {
		mk = append(mk, k)
		if x != rp.m[k] {
			mk = append(mk, "!value")
		}
	})
	e.EachAttr(func(k, s string) {
		ak = append(ak, k)
		if s != rp.attr[k] {
			ak = append(ak, "!value")
		}
	})
	if fmt.Sprint(mk) != fmt.Sprint(sortedKeys(rp.m)) || e.NumMetrics() != len(rp.m) {
		return fmt.Errorf("edge EachMetric = %v (%d), want %v", mk, e.NumMetrics(), sortedKeys(rp.m))
	}
	if fmt.Sprint(ak) != fmt.Sprint(sortedKeys(rp.attr)) || e.NumAttrs() != len(rp.attr) {
		return fmt.Errorf("edge EachAttr = %v (%d), want %v", ak, e.NumAttrs(), sortedKeys(rp.attr))
	}
	return nil
}

func checkAgainstRef(t *testing.T, what string, g *Graph, r *refGraph) {
	t.Helper()
	if g.NumVertices() != len(r.vs) || g.NumEdges() != len(r.es) {
		t.Fatalf("%s: shape %d/%d, want %d/%d", what, g.NumVertices(), g.NumEdges(), len(r.vs), len(r.es))
	}
	for i, rv := range r.vs {
		v := g.Vertex(VertexID(i))
		if v.ID != VertexID(i) || v.Name != rv.name || v.Label != rv.label {
			t.Fatalf("%s: vertex %d is %d/%q/%d, want %q/%d", what, i, v.ID, v.Name, v.Label, rv.name, rv.label)
		}
		if err := checkVertexProps(v, rv.refProps); err != nil {
			t.Fatalf("%s: vertex %d: %v", what, i, err)
		}
	}
	for i, re := range r.es {
		e := g.Edge(EdgeID(i))
		if e.ID != EdgeID(i) || e.Src != re.src || e.Dst != re.dst || e.Label != re.label {
			t.Fatalf("%s: edge %d is %+v, want %d->%d/%d", what, i, e, re.src, re.dst, re.label)
		}
		if err := checkEdgeProps(e, re.refProps); err != nil {
			t.Fatalf("%s: edge %d: %v", what, i, err)
		}
	}
}

// refDiff is Diff (normalized or not) on the model.
func refDiff(a, b *refGraph, normalized bool) *refGraph {
	type key struct {
		name  string
		label int
		dbg   string
	}
	idx := map[key][]int{}
	for i, v := range b.vs {
		k := key{v.name, v.label, v.attr["debug"]}
		idx[k] = append(idx[k], i)
	}
	taken := map[key]int{}
	out := &refGraph{}
	for _, v1 := range a.vs {
		ov := refVertex{v1.name, v1.label, newRefProps()}
		for k, s := range v1.attr {
			ov.attr[k] = s
		}
		var v2 *refVertex
		k := key{v1.name, v1.label, v1.attr["debug"]}
		if cands := idx[k]; taken[k] < len(cands) {
			v2 = &b.vs[cands[taken[k]]]
			taken[k]++
		}
		p2 := newRefProps()
		if v2 != nil {
			p2 = v2.refProps
		}
		for m, x1 := range v1.m {
			ov.m[m] = p2.m[m] - x1
		}
		for m, x2 := range p2.m {
			if _, ok := v1.m[m]; !ok {
				ov.m[m] = x2
			}
		}
		for m, vec1 := range v1.vec {
			vec2 := p2.vec[m]
			n := len(vec1)
			if len(vec2) > n {
				n = len(vec2)
			}
			dv := make([]float64, n)
			for i := range dv {
				var x, y float64
				if i < len(vec1) {
					x = vec1[i]
				}
				if i < len(vec2) {
					y = vec2[i]
				}
				dv[i] = y - x
			}
			ov.vec[m] = dv
		}
		for m, vec2 := range p2.vec {
			if _, ok := v1.vec[m]; !ok {
				ov.vec[m] = append([]float64(nil), vec2...)
			}
		}
		if normalized {
			for m, delta := range ov.m {
				if base := v1.m[m]; base != 0 {
					ov.m[m] = delta / base
				}
			}
		}
		out.vs = append(out.vs, ov)
	}
	for _, e := range a.es {
		oe := refEdge{e.src, e.dst, e.label, newRefProps()}
		for k, s := range e.attr {
			oe.attr[k] = s
		}
		out.es = append(out.es, oe)
	}
	return out
}

func TestPropsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hints := []int{0, 3, 200}
		g := New(hints[rng.Intn(3)], hints[rng.Intn(3)])
		r := &refGraph{}
		nops := 50 + rng.Intn(300)
		for i := 0; i < nops; i++ {
			randomPropOp(rng, g, r, true)
		}
		checkAgainstRef(t, fmt.Sprintf("seed %d graph", seed), g, r)

		// Clone is deep: the copy reads the same and evolves independently.
		c, rc := g.Clone(), r.clone()
		checkAgainstRef(t, fmt.Sprintf("seed %d clone", seed), c, rc)
		for i := 0; i < 40; i++ {
			randomPropOp(rng, c, rc, true)
		}
		checkAgainstRef(t, fmt.Sprintf("seed %d clone after ops", seed), c, rc)
		checkAgainstRef(t, fmt.Sprintf("seed %d graph after clone ops", seed), g, r)

		// Diff against the evolved clone, both ways.
		checkAgainstRef(t, fmt.Sprintf("seed %d Diff", seed), Diff(g, c), refDiff(r, rc, false))
		checkAgainstRef(t, fmt.Sprintf("seed %d Diff reversed", seed), Diff(c, g), refDiff(rc, r, false))
		checkAgainstRef(t, fmt.Sprintf("seed %d DiffNormalized", seed), DiffNormalized(g, c), refDiff(r, rc, true))

		// Round trip: the decoded graph reads like the model and
		// re-encodes to the same bytes.
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		enc := append([]byte(nil), buf.Bytes()...)
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("seed %d: ReadFrom: %v", seed, err)
		}
		checkAgainstRef(t, fmt.Sprintf("seed %d round trip", seed), back, r)
		var buf2 bytes.Buffer
		if _, err := back.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, buf2.Bytes()) {
			t.Fatalf("seed %d: re-encoding differs", seed)
		}

		// DAGCopy reads through to the original: vertices by ID, edges by
		// their source edge, including writes and growth after the copy.
		dag, orig := dagCopyShared(g)
		checkDAGReads := func(when string) {
			t.Helper()
			for i := 0; i < dag.NumVertices(); i++ {
				if err := checkVertexProps(dag.Vertex(VertexID(i)), r.vs[i].refProps); err != nil {
					t.Fatalf("seed %d DAGCopy %s: vertex %d: %v", seed, when, i, err)
				}
			}
			for i := 0; i < dag.NumEdges(); i++ {
				e, re := dag.Edge(EdgeID(i)), r.es[orig[i]]
				if e.Src != re.src || e.Dst != re.dst || e.Label != re.label {
					t.Fatalf("seed %d DAGCopy %s: edge %d endpoints", seed, when, i)
				}
				if err := checkEdgeProps(e, re.refProps); err != nil {
					t.Fatalf("seed %d DAGCopy %s: edge %d: %v", seed, when, i, err)
				}
			}
		}
		checkDAGReads("at copy")
		// Clone and Diff of the copy read edges through their source rows.
		rsnap := r.clone()
		rdag := &refGraph{vs: rsnap.vs}
		for _, oe := range orig {
			rdag.es = append(rdag.es, rsnap.es[oe])
		}
		checkAgainstRef(t, fmt.Sprintf("seed %d DAG copy clone", seed), dag.Clone(), rdag)
		checkAgainstRef(t, fmt.Sprintf("seed %d DAG copy Diff", seed), Diff(dag, g), refDiff(rdag, r, false))
		nv := len(r.vs)
		for i := 0; i < 60; i++ {
			randomPropOp(rng, g, r, i%3 == 0)
		}
		if dag.NumVertices() != nv {
			t.Fatalf("seed %d: DAG copy grew with its original", seed)
		}
		checkDAGReads("after writes")
		checkAgainstRef(t, fmt.Sprintf("seed %d graph after DAG ops", seed), g, r)
	}
}

// dagCopyShared is DAGCopy; the copy shares the original's columns.
func dagCopyShared(g *Graph) (*Graph, []EdgeID) { return DAGCopy(g) }

// TestDistinctKeysAreIndependent is the concurrency contract of the
// property store, meant for -race: writers of different keys — including
// the first writes that create their columns — may run concurrently on the
// same elements while another goroutine reads a third key. Writers of the
// same key still need ordering.
func TestDistinctKeysAreIndependent(t *testing.T) {
	const n = 256
	g := New(n, n)
	for i := 0; i < n; i++ {
		g.AddVertex("v", 0)
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i), 0)
		}
	}
	for i := 0; i < n; i++ {
		g.Vertex(VertexID(i)).SetMetric("read", float64(i))
	}
	done := make(chan struct{})
	write := func(prefix string) {
		defer func() { done <- struct{}{} }()
		for k := 0; k < 8; k++ {
			key := fmt.Sprintf("%s%d", prefix, k)
			for i := 0; i < n; i++ {
				v := g.Vertex(VertexID(i))
				v.AddMetric(key, 1)
				v.AddVecAt(key, i%3, 1)
				v.SetAttr(key, prefix)
				if i > 0 {
					g.Edge(EdgeID(i-1)).SetMetric(key, 2)
				}
			}
		}
	}
	go write("a")
	go write("b")
	go func() {
		defer func() { done <- struct{}{} }()
		for round := 0; round < 50; round++ {
			col := g.VertexMetricColumn("read")
			for i := 0; i < n; i++ {
				if got := g.Vertex(VertexID(i)).Metric("read"); got != float64(i) || col[i] != got {
					t.Errorf("vertex %d read %v (column %v) under concurrent writers", i, got, col[i])
					return
				}
			}
		}
	}()
	for i := 0; i < 3; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		v := g.Vertex(VertexID(i))
		if v.NumMetrics() != 17 || v.NumAttrs() != 16 || v.Metric("a7") != 1 || v.Attr("b3") != "b" {
			t.Fatalf("vertex %d: %d metrics, %d attrs after concurrent writers", i, v.NumMetrics(), v.NumAttrs())
		}
	}
}

// TestDiffTwinsManyKeys pairs twins across thousands of distinct keys,
// enough for many of them to share a hash, plus repeated keys, keys only
// one side has, and a second graph built in another order: every g1
// vertex must meet the k-th g2 vertex of its key, by ID, as a map would
// pair them.
func TestDiffTwinsManyKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type key struct {
		name, dbg string
		label     int
	}
	var keys []key
	for i := 0; i < 4000; i++ {
		k := key{fmt.Sprint("v", i%3000), fmt.Sprint("f.c:", i%1500), i % 3}
		keys = append(keys, k)
	}
	build := func(ks []key, scale float64) *Graph {
		g := New(len(ks), 0)
		for i, k := range ks {
			v := g.Vertex(g.AddVertex(k.name, k.label))
			v.SetAttr("debug", k.dbg)
			v.SetMetric("m", scale*float64(i+1))
		}
		return g
	}
	ks2 := append([]key(nil), keys[500:]...)
	rng.Shuffle(len(ks2), func(i, j int) { ks2[i], ks2[j] = ks2[j], ks2[i] })
	ks2 = append(ks2, key{"only-in-g2", "", 0})
	g1, g2 := build(keys, 1), build(ks2, 1000)
	byKey := map[key][]int{}
	for i, k := range ks2 {
		byKey[k] = append(byKey[k], i)
	}
	seen := map[key]int{}
	d := Diff(g1, g2)
	for i, k := range keys {
		want := -float64(i + 1)
		if c := byKey[k]; seen[k] < len(c) {
			want += 1000 * float64(c[seen[k]]+1)
			seen[k]++
		}
		if got := d.Vertex(VertexID(i)).Metric("m"); got != want {
			t.Fatalf("vertex %d %v: diff %v, want %v", i, k, got, want)
		}
	}
}
