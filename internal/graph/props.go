package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Columnar property storage. Every scalar metric, vector metric and string
// attribute key of a graph is one dense column: a value slice indexed by
// VertexID (for edges, by the edge's row: see propRow) plus a presence flag
// per element. Absent elements hold the zero value, so a kernel can read a
// column without consulting presence; serialization, Diff and the Each*
// iterators consult it to enumerate exactly the keys an element has.
//
// Concurrency: the key→column directory is copy-on-write behind an atomic
// pointer and column creation takes a mutex, so first writes of different
// keys never race. Presence is a byte per element, not a bitset, so writers
// of different elements of one column never share a word. Columns only grow
// in AddVertex/AddEdge, which are structural mutations and already exclusive.

// column is one property key's values and presence flags.
type column[T any] struct {
	vals []T
	has  []bool
}

// directory maps keys to columns; it is immutable once published.
type directory[T any] struct {
	keys []string // sorted
	cols []*column[T]
}

// table holds the columns of one value type.
type table[T any] struct {
	dir atomic.Pointer[directory[T]]
}

// props is the property store of one element kind (vertices or edges) of a
// graph. A DAG copy shares its original's stores.
type props struct {
	mu     sync.Mutex // serializes column creation
	rows   int        // elements; changes only in structural mutation
	hint   int        // capacity for new columns (graph.New's hint)
	scalar table[float64]
	vec    table[[]float64]
	str    table[string]
}

// get returns the column of key k, or nil.
func (t *table[T]) get(k string) *column[T] {
	if d := t.dir.Load(); d != nil {
		if i, ok := slices.BinarySearch(d.keys, k); ok {
			return d.cols[i]
		}
	}
	return nil
}

// col returns the column of key k, creating it (all absent) if needed.
func (t *table[T]) col(p *props, k string) *column[T] {
	if c := t.get(k); c != nil {
		return c
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := t.dir.Load()
	if old == nil {
		old = &directory[T]{}
	}
	i, ok := slices.BinarySearch(old.keys, k)
	if ok {
		return old.cols[i]
	}
	n := max(p.rows, p.hint)
	c := &column[T]{vals: make([]T, p.rows, n), has: make([]bool, p.rows, n)}
	// Clipped slices have no spare capacity, so Insert copies and readers
	// of the old directory never see it change.
	t.dir.Store(&directory[T]{
		keys: slices.Insert(slices.Clip(old.keys), i, k),
		cols: slices.Insert(slices.Clip(old.cols), i, c),
	})
	return c
}

// lookup returns the value of key k at row i and whether it is present.
func (t *table[T]) lookup(k string, i int) (T, bool) { return Column[T]{t.get(k)}.Lookup(VertexID(i)) }

// at returns the value of key k at row i, or the zero value.
func (t *table[T]) at(k string, i int) T { return Column[T]{t.get(k)}.At(VertexID(i)) }

// set stores x as key k at row i.
func (t *table[T]) set(p *props, k string, i int, x T) {
	c := t.col(p, k)
	c.vals[i] = x
	c.has[i] = true
}

// each calls fn for every key present at row i, in sorted key order.
func (t *table[T]) each(i int, fn func(string, T)) {
	if d := t.dir.Load(); d != nil {
		for j, c := range d.cols {
			if c.has[i] {
				fn(d.keys[j], c.vals[i])
			}
		}
	}
}

// count returns the number of keys present at row i.
func (t *table[T]) count(i int) (n int) {
	t.each(i, func(string, T) { n++ })
	return n
}

// grow appends one absent row to every column.
func (t *table[T]) grow() {
	if d := t.dir.Load(); d != nil {
		var zero T
		for _, c := range d.cols {
			c.vals = append(c.vals, zero)
			c.has = append(c.has, false)
		}
	}
}

// copyFrom sets rows off..off+n of t, which must hold no values yet, to
// rows 0..n of st, or to rows src(i) when src is non-nil; dup copies a
// value (nil keeps it as is). Without src and dup each column is copied as
// one range.
func (t *table[T]) copyFrom(p *props, st *table[T], off, n int, src func(int) int, dup func(T) T) {
	d := st.dir.Load()
	if d == nil || n == 0 {
		return
	}
	for j, sc := range d.cols {
		c := t.col(p, d.keys[j])
		if src == nil && dup == nil {
			copy(c.vals[off:off+n], sc.vals[:n])
			copy(c.has[off:off+n], sc.has[:n])
			continue
		}
		for i := 0; i < n; i++ {
			r := i
			if src != nil {
				r = src(i)
			}
			if sc.has[r] {
				x := sc.vals[r]
				if dup != nil {
					x = dup(x)
				}
				c.vals[off+i], c.has[off+i] = x, true
			}
		}
	}
}

func (p *props) grow() {
	p.rows++
	p.scalar.grow()
	p.vec.grow()
	p.str.grow()
}

// propRow is an element's row in its graph's property columns; the scalar
// and attribute accessors of Vertex and Edge are its methods. A vertex's
// row is its ID; an edge's is its ID, except in a DAG copy, whose edges
// read their source edge's row.
type propRow struct {
	props *props
	row   int32
}

// Metric returns scalar metric m, or 0 if absent.
func (r *propRow) Metric(m string) float64 { return r.props.scalar.at(m, int(r.row)) }

// LookupMetric returns scalar metric m and whether it is present.
func (r *propRow) LookupMetric(m string) (float64, bool) {
	return r.props.scalar.lookup(m, int(r.row))
}

// SetMetric sets scalar metric m to val.
func (r *propRow) SetMetric(m string, val float64) { r.props.scalar.set(r.props, m, int(r.row), val) }

// AddMetric adds val to scalar metric m.
func (r *propRow) AddMetric(m string, val float64) {
	c := r.props.scalar.col(r.props, m)
	c.vals[r.row] += val
	c.has[r.row] = true
}

// EachMetric calls fn for every scalar metric present, in sorted key order.
func (r *propRow) EachMetric(fn func(m string, val float64)) { r.props.scalar.each(int(r.row), fn) }

// NumMetrics returns the number of scalar metrics present.
func (r *propRow) NumMetrics() int { return r.props.scalar.count(int(r.row)) }

// Attr returns string attribute k, or "" if absent.
func (r *propRow) Attr(k string) string { return r.props.str.at(k, int(r.row)) }

// LookupAttr returns string attribute k and whether it is present.
func (r *propRow) LookupAttr(k string) (string, bool) { return r.props.str.lookup(k, int(r.row)) }

// SetAttr sets string attribute k to val.
func (r *propRow) SetAttr(k, val string) { r.props.str.set(r.props, k, int(r.row), val) }

// EachAttr calls fn for every string attribute present, in sorted key
// order.
func (r *propRow) EachAttr(fn func(k, val string)) { r.props.str.each(int(r.row), fn) }

// NumAttrs returns the number of string attributes present.
func (r *propRow) NumAttrs() int { return r.props.str.count(int(r.row)) }

// Vec returns the vector metric m (per-process values, indexed by rank),
// or nil if absent.
func (v *Vertex) Vec(m string) []float64 { return v.props.vec.at(m, int(v.row)) }

// LookupVec returns the vector metric m and whether v has it.
func (v *Vertex) LookupVec(m string) ([]float64, bool) { return v.props.vec.lookup(m, int(v.row)) }

// SetVec sets the vector metric m.
func (v *Vertex) SetVec(m string, vals []float64) { v.props.vec.set(v.props, m, int(v.row), vals) }

// AddVecAt adds val at index i of vector metric m, growing the vector with
// zeros as needed.
func (v *Vertex) AddVecAt(m string, i int, val float64) {
	c := v.props.vec.col(v.props, m)
	vec := c.vals[v.row]
	for len(vec) <= i {
		vec = append(vec, 0)
	}
	vec[i] += val
	c.vals[v.row], c.has[v.row] = vec, true
}

// EachVec calls fn for every vector metric of v, in sorted key order.
func (v *Vertex) EachVec(fn func(m string, vals []float64)) { v.props.vec.each(int(v.row), fn) }

// NumVecs returns the number of vector metrics v has.
func (v *Vertex) NumVecs() int { return v.props.vec.count(int(v.row)) }

// VertexMetricColumn returns scalar metric m of every vertex, indexed by
// VertexID (absent vertices read 0), or nil when no vertex has m. The slice
// is owned by the graph: read-only, and valid until the next AddVertex.
func (g *Graph) VertexMetricColumn(m string) []float64 {
	if c := g.vprops.scalar.get(m); c != nil {
		return c.vals
	}
	return nil
}

// Column is a read handle on one key's column of a graph's vertices,
// indexed by VertexID: a pass or renderer takes it once and reads every
// row through it instead of resolving the key per row. The handle of a key
// no vertex has reads absent everywhere; a handle stays valid across
// AddVertex but does not see a column created after it was taken.
type Column[T any] struct{ c *column[T] }

// Lookup returns v's value and whether v has it.
func (c Column[T]) Lookup(v VertexID) (T, bool) {
	if c.c == nil || !c.c.has[v] {
		var zero T
		return zero, false
	}
	return c.c.vals[v], true
}

// At returns v's value, or the zero value when v has none.
func (c Column[T]) At(v VertexID) T {
	x, _ := c.Lookup(v)
	return x
}

// MetricColumn returns the handle of scalar metric m's vertex column.
func (g *Graph) MetricColumn(m string) Column[float64] {
	return Column[float64]{g.vprops.scalar.get(m)}
}

// AttrColumn returns the handle of string attribute k's vertex column.
func (g *Graph) AttrColumn(k string) Column[string] {
	return Column[string]{g.vprops.str.get(k)}
}

// VecColumn returns the handle of vector metric m's vertex column.
func (g *Graph) VecColumn(m string) Column[[]float64] {
	return Column[[]float64]{g.vprops.vec.get(m)}
}

// WritableVertexMetric returns the value and presence slices of scalar
// metric m, indexed by VertexID, creating the column if needed: setting
// vals[v] and has[v] = true is what SetMetric does, so a writer folding many
// values into one key pays the key lookup once instead of per vertex. The
// slices are owned by the graph and valid until the next AddVertex.
func (g *Graph) WritableVertexMetric(m string) (vals []float64, has []bool) {
	c := g.vprops.scalar.col(g.vprops, m)
	return c.vals, c.has
}

// WritableVertexVec is WritableVertexMetric for vector metric m.
func (g *Graph) WritableVertexVec(m string) (vals [][]float64, has []bool) {
	c := g.vprops.vec.col(g.vprops, m)
	return c.vals, c.has
}

// EdgeMetricColumn returns scalar metric m of every edge, indexed by the
// edge's column row — its ID, or in a DAG copy its source edge's ID — with
// absent edges reading 0, or nil when no edge has m. Read-only, and valid
// until the next AddEdge.
func (g *Graph) EdgeMetricColumn(m string) []float64 {
	if c := g.eprops.scalar.get(m); c != nil {
		return c.vals
	}
	return nil
}

// CopyMetricsFrom copies every metric and attribute of src's vertices and
// edges onto g's vertices vOff.. and edges eOff.., which must exist and
// carry no properties yet. Each key is copied as one column range; vector
// values are shared with src, not copied.
func (g *Graph) CopyMetricsFrom(src *Graph, vOff VertexID, eOff EdgeID) {
	g.copyPropsFrom(src, vOff, eOff, nil)
}

func (g *Graph) copyPropsFrom(src *Graph, vOff VertexID, eOff EdgeID, dupVec func([]float64) []float64) {
	nv, off := len(src.vertices), int(vOff)
	g.vprops.scalar.copyFrom(g.vprops, &src.vprops.scalar, off, nv, nil, nil)
	g.vprops.vec.copyFrom(g.vprops, &src.vprops.vec, off, nv, nil, dupVec)
	g.vprops.str.copyFrom(g.vprops, &src.vprops.str, off, nv, nil, nil)
	ne, off := len(src.edges), int(eOff)
	erow := src.edgeRows()
	g.eprops.scalar.copyFrom(g.eprops, &src.eprops.scalar, off, ne, erow, nil)
	g.eprops.str.copyFrom(g.eprops, &src.eprops.str, off, ne, erow, nil)
}

// edgeRows maps g's edge IDs to column rows: nil (the identity) unless g
// is a DAG copy.
func (g *Graph) edgeRows() func(int) int {
	if !g.isDAGCopy {
		return nil
	}
	return func(i int) int { return int(g.edges[i].row) }
}
