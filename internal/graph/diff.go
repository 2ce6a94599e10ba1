package graph

import (
	"cmp"
	"hash/maphash"
	"slices"
)

// Graph difference (paper §4.3.2 B, Figure 7): given two PAGs of the same
// program under different inputs or scales, produce a graph with the same
// structure whose vertex metrics are the (signed) differences. Differential
// analysis then treats large differences as scaling or input-sensitivity
// issues even when the absolute values are not hotspots.

// Diff returns a new graph with g1's structure whose scalar metrics are
// g2's minus g1's, matched by vertex identity. Vertices are matched by
// (Name, Label, debug-info attribute) key; a vertex of g1 with no match in
// g2 keeps -g1's metrics (it disappeared), and metrics present only in the
// g2 twin are copied with positive sign (it appeared). Vector metrics are
// differenced element-wise up to the shorter length, with the longer tail
// kept signed like scalars. String attributes are copied from g1.
func Diff(g1, g2 *Graph) *Graph {
	n := g1.NumVertices()
	out := New(n, g1.NumEdges())
	out.copyStructure(g1)
	twin := twins(g1, g2)
	out.vprops.str.copyFrom(out.vprops, &g1.vprops.str, 0, n, nil, nil)
	out.eprops.str.copyFrom(out.eprops, &g1.eprops.str, 0, g1.NumEdges(), g1.edgeRows(), nil)
	diffColumns(out.vprops, &out.vprops.scalar, &g1.vprops.scalar, &g2.vprops.scalar, twin, scalarDiff{})
	diffColumns(out.vprops, &out.vprops.vec, &g1.vprops.vec, &g2.vprops.vec, twin, &vecDiff{})
	return out
}

// twins returns g2's match of each g1 vertex, or NoVertex: twins share
// (Name, Label, debug), and the k-th g1 vertex of a key in ID order pairs
// with the k-th g2 vertex of that key. Both vertex sets are sorted by
// (hash of the key, key, ID) and merged, so no map is built, strings are
// compared only where hashes tie, and no order is kept on either graph for
// a later attribute write to make stale.
func twins(g1, g2 *Graph) []VertexID {
	seed := maphash.MakeSeed()
	d1, d2 := g1.AttrColumn("debug"), g2.AttrColumn("debug")
	s1, s2 := twinKeys(g1, d1, seed), twinKeys(g2, d2, seed)
	twin := make([]VertexID, len(s1))
	j := 0
	for _, a := range s1 {
		c := 1
		for ; j < len(s2); j++ {
			if c = cmpTwin(g2, d2, s2[j], g1, d1, a); c >= 0 {
				break
			}
		}
		twin[a.v] = NoVertex
		if c == 0 {
			twin[a.v] = s2[j].v
			j++
		}
	}
	return twin
}

// twinKey is a vertex with the hash of its twin key.
type twinKey struct {
	h uint16
	v VertexID
}

// twinKeys returns g's vertices sorted by (hash, key, ID): a byte-wise
// radix sort on the hash, stable so equal hashes stay in ID order, then a
// stable sort by key of each run of equal hashes.
func twinKeys(g *Graph, dbg Column[string], seed maphash.Seed) []twinKey {
	ks, tmp := make([]twinKey, len(g.vertices)), make([]twinKey, len(g.vertices))
	for i := range g.vertices {
		v := &g.vertices[i]
		h := maphash.String(seed, v.Name)*31 + maphash.String(seed, dbg.At(v.ID))
		ks[i] = twinKey{uint16(h*31 + uint64(v.Label)), v.ID}
	}
	for shift := 0; shift < 16; shift += 8 {
		var at [256]int
		for _, k := range ks {
			at[byte(k.h>>shift)]++
		}
		for b, sum := 0, 0; b < 256; b++ {
			at[b], sum = sum, sum+at[b]
		}
		for _, k := range ks {
			tmp[at[byte(k.h>>shift)]] = k
			at[byte(k.h>>shift)]++
		}
		ks, tmp = tmp, ks
	}
	for i, j := 0, 0; i < len(ks); i = j {
		for j = i + 1; j < len(ks) && ks[j].h == ks[i].h; j++ {
		}
		slices.SortStableFunc(ks[i:j], func(a, b twinKey) int { return cmpTwin(g, dbg, a, g, dbg, b) })
	}
	return ks
}

// cmpTwin orders twin keys of graphs x and y by hash, then by key.
func cmpTwin(x *Graph, dx Column[string], a twinKey, y *Graph, dy Column[string], b twinKey) int {
	if a.h != b.h {
		return cmp.Compare(a.h, b.h)
	}
	va, vb := &x.vertices[a.v], &y.vertices[b.v]
	return cmp.Or(cmp.Compare(va.Name, vb.Name), cmp.Compare(va.Label, vb.Label), cmp.Compare(dx.At(a.v), dy.At(b.v)))
}

// diffColumns fills column table o, row by row over g1's vertices, from
// g1's table t1 and g2's table t2: a key present in g1 becomes d.sub(x1,
// x2) with x2 the twin's value (zero without a twin); a key present only in
// the twin becomes d.sub(zero, x2), which is x2 exactly for both value
// types. Absent elements hold the zero value, so both cases read the
// columns directly.
func diffColumns[T any](p *props, o, t1, t2 *table[T], twin []VertexID, d differ[T]) {
	var keys []string
	if d1 := t1.dir.Load(); d1 != nil {
		keys = append(keys, d1.keys...)
	}
	if d2 := t2.dir.Load(); d2 != nil {
		for _, k := range d2.keys {
			if t1.get(k) == nil {
				keys = append(keys, k)
			}
		}
	}
	for _, k := range keys {
		c1, c2 := t1.get(k), t2.get(k)
		// rows calls fn for every row of key k's output column.
		rows := func(fn func(i int, x1, x2 T)) {
			for i, tw := range twin {
				in1 := c1 != nil && c1.has[i]
				in2 := tw != NoVertex && c2 != nil && c2.has[tw]
				if !in1 && !in2 {
					continue
				}
				var x1, x2 T
				if c1 != nil {
					x1 = c1.vals[i]
				}
				if tw != NoVertex && c2 != nil {
					x2 = c2.vals[tw]
				}
				fn(i, x1, x2)
			}
		}
		d.begin(rows)
		var oc *column[T]
		rows(func(i int, x1, x2 T) {
			if oc == nil {
				oc = o.col(p, k)
			}
			oc.vals[i], oc.has[i] = d.sub(x1, x2), true
		})
	}
}

// differ differences the values of one column type. begin is called once
// per output column with a visitor over the pairs sub will be called on.
type differ[T any] interface {
	begin(rows func(fn func(i int, x1, x2 T)))
	sub(x1, x2 T) T
}

// scalarDiff differences scalar metrics.
type scalarDiff struct{}

func (scalarDiff) begin(func(func(int, float64, float64))) {}
func (scalarDiff) sub(a, b float64) float64                { return b - a }

// vecDiff differences vector metrics element-wise over the longer length,
// missing elements reading 0. The vectors of one output column are carved
// from one backing array, sized in begin.
type vecDiff struct {
	buf []float64
}

func (d *vecDiff) begin(rows func(func(int, []float64, []float64))) {
	n := 0
	rows(func(_ int, vec1, vec2 []float64) { n += max(len(vec1), len(vec2)) })
	d.buf = make([]float64, n)
}

func (d *vecDiff) sub(vec1, vec2 []float64) []float64 {
	n := max(len(vec1), len(vec2))
	dv := d.buf[:n:n]
	d.buf = d.buf[n:]
	for i := range dv {
		var a, b float64
		if i < len(vec1) {
			a = vec1[i]
		}
		if i < len(vec2) {
			b = vec2[i]
		}
		dv[i] = b - a
	}
	return dv
}

// DiffNormalized is like Diff but divides each difference by the g1 value
// (relative change), leaving 0 where the g1 value is 0. Useful for
// scalability analysis where "grew 40x" matters more than "grew 3 ms".
func DiffNormalized(g1, g2 *Graph) *Graph {
	d := Diff(g1, g2)
	dd := d.vprops.scalar.dir.Load()
	if dd == nil {
		return d
	}
	for j, dc := range dd.cols {
		base := g1.VertexMetricColumn(dd.keys[j])
		for i, delta := range dc.vals {
			if !dc.has[i] {
				continue
			}
			if base != nil && base[i] != 0 {
				dc.vals[i] = delta / base[i]
			} else if delta == 0 {
				dc.vals[i] = 0
			}
		}
	}
	return d
}
