package core

import (
	"cmp"
	"slices"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// Scan kernels: the per-vertex forms of the fusable built-in passes. A
// standalone pass runs its kernel over its input set (scan), and the
// planner drives several kernels from a single shared sweep, so planned
// and unplanned runs share one implementation and render the same bytes.

// keyed pairs a vertex with its sort key so ordering kernels can sort over
// values cached during the shared sweep instead of re-reading the metric
// column O(n log n) times inside the comparator.
type keyed struct {
	id  graph.VertexID
	val float64
}

// sortKeyed orders ks under cmpKeyed — Set.SortBy's order — and returns
// the IDs in that order (nil when ks is empty). Each val must be the key
// the standalone pass would read for its id; fusion legality (disjoint
// Reads/Writes) guarantees no fused sibling changes it between the sweep
// and Finish.
func sortKeyed(ks []keyed) []graph.VertexID {
	if len(ks) == 0 {
		return nil
	}
	slices.SortFunc(ks, cmpKeyed)
	ids := make([]graph.VertexID, len(ks))
	for i := range ks {
		ids[i] = ks[i].id
	}
	return ids
}

// cmpKeyed is Set.SortBy's order as a three-way comparison: val
// descending with NaN after every number, id ascending. Negative means a
// sorts before b. cmp.Compare makes it total even on NaN keys, so every
// selection or sort under it yields the same unique order.
func cmpKeyed(a, b keyed) int {
	return cmp.Or(cmp.Compare(b.val, a.val), cmp.Compare(a.id, b.id))
}

// topK selects the n first entries under cmpKeyed from a stream, for
// sort_by(m).top(n). Once n entries are held they form a worst-at-root
// heap, and a later entry displaces the root only when it sorts before it:
// O(len·log n) time and n entries of memory, and the full sort's result,
// since cmpKeyed is total.
type topK struct {
	n int
	h []keyed
}

func (t *topK) push(e keyed) {
	switch {
	case len(t.h) < t.n:
		t.h = append(t.h, e)
		if len(t.h) == t.n {
			for i := t.n/2 - 1; i >= 0; i-- {
				siftWorst(t.h, i)
			}
		}
	case t.n > 0 && cmpKeyed(e, t.h[0]) < 0:
		t.h[0] = e
		siftWorst(t.h, 0)
	}
}

// siftWorst restores the worst-at-root heap property at index i: every
// parent sorts after (cmpKeyed > 0) its children.
func siftWorst(h []keyed, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		w := l
		if r := l + 1; r < len(h) && cmpKeyed(h[r], h[l]) > 0 {
			w = r
		}
		if cmpKeyed(h[w], h[i]) <= 0 {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// filterKernel is FilterName/FilterLabel as a kernel.
type filterKernel struct {
	in   *Set
	keep func(*graph.Vertex) bool
	out  *Set
}

func newFilterKernel(in *Set, keep func(*graph.Vertex) bool) *filterKernel {
	return &filterKernel{in: in, keep: keep, out: NewSet(in.PAG)}
}

func (k *filterKernel) Visit(_ int, v graph.VertexID) {
	if k.keep(k.in.PAG.G.Vertex(v)) {
		k.out.V = append(k.out.V, v)
	}
}

func (k *filterKernel) Finish() ([]*Set, error) { return []*Set{k.out}, nil }

// hotspotKernel is Hotspot (sort_by(m).top(n)) as a kernel, and the one
// implementation of it: the scan reads each vertex's value from the
// metric's column and keeps the top n under cmpKeyed; Finish orders them
// like SortBy+Top (descending, ties to the lower ID, edges carried through
// unchanged).
type hotspotKernel struct {
	in  *Set
	col []float64 // the metric's vertex column; nil reads 0
	top topK
}

func newHotspotKernel(in *Set, metric string, n int) *hotspotKernel {
	h := make([]keyed, 0, max(0, min(n, len(in.V))))
	return &hotspotKernel{in: in, col: in.PAG.G.VertexMetricColumn(metric), top: topK{n: n, h: h}}
}

func (k *hotspotKernel) Visit(_ int, v graph.VertexID) {
	var x float64
	if k.col != nil {
		x = k.col[v]
	}
	k.top.push(keyed{v, x})
}

func (k *hotspotKernel) Finish() ([]*Set, error) {
	return []*Set{{
		PAG: k.in.PAG,
		V:   sortKeyed(k.top.h),
		E:   append([]graph.EdgeID(nil), k.in.E...),
	}}, nil
}

// imbalanceKernel is Imbalance as a kernel.
type imbalanceKernel struct {
	in        *Set
	vecs      graph.Column[[]float64]
	threshold float64
	ks        []keyed
}

func newImbalanceKernel(in *Set, metric string, threshold float64) *imbalanceKernel {
	return &imbalanceKernel{in: in, vecs: in.PAG.G.VecColumn(metric + "_vec"), threshold: threshold}
}

func (k *imbalanceKernel) Visit(_ int, vid graph.VertexID) {
	vec := k.vecs.At(vid)
	if len(vec) == 0 {
		return
	}
	n := max(k.in.PAG.NRanks, len(vec))
	var sum, maxv float64
	for _, x := range vec {
		sum += x
		if x > maxv {
			maxv = x
		}
	}
	if sum <= 0 || n == 0 {
		return
	}
	ratio := maxv / (sum / float64(n))
	k.in.PAG.G.Vertex(vid).SetMetric(MetricImbalance, ratio)
	if ratio >= k.threshold {
		k.ks = append(k.ks, keyed{vid, ratio})
	}
}

func (k *imbalanceKernel) Finish() ([]*Set, error) {
	return []*Set{{PAG: k.in.PAG, V: sortKeyed(k.ks)}}, nil
}

// breakdownKernel is Breakdown as a kernel: annotations land on the
// environment during the scan, the output is the input cloned.
type breakdownKernel struct {
	in          *Set
	total, wait graph.Column[float64]
}

func newBreakdownKernel(in *Set) *breakdownKernel {
	g := in.PAG.G
	return &breakdownKernel{in: in, total: g.MetricColumn(pag.MetricExclTime), wait: g.MetricColumn(pag.MetricWait)}
}

func (k *breakdownKernel) Visit(_ int, vid graph.VertexID) {
	wait := k.wait.At(vid)
	transfer := k.total.At(vid) - wait
	if transfer < 0 {
		transfer = 0
	}
	vert := k.in.PAG.G.Vertex(vid)
	vert.SetMetric("transfer", transfer)
	cause := "message-size"
	if wait > transfer {
		cause = "preceding-imbalance"
	}
	vert.SetAttr("breakdown", cause)
}

func (k *breakdownKernel) Finish() ([]*Set, error) { return []*Set{k.in.Clone()}, nil }

// waitstateKernel is WaitStates as a kernel.
type waitstateKernel struct {
	in   *Set
	kind graph.Column[string]
	wait graph.Column[float64]
	ks   []keyed
}

func newWaitstateKernel(in *Set) *waitstateKernel {
	g := in.PAG.G
	return &waitstateKernel{in: in, kind: g.AttrColumn(pag.AttrKind), wait: g.MetricColumn(pag.MetricWait)}
}

func (k *waitstateKernel) Visit(_ int, vid graph.VertexID) {
	vert := k.in.PAG.G.Vertex(vid)
	if !isComm(k.kind.At(vid), vert.Label) {
		return
	}
	w := k.wait.At(vid)
	vert.SetAttr(AttrWaitState, waitClass(vert.Name, w))
	if w > 0 {
		k.ks = append(k.ks, keyed{vid, w})
	}
}

func (k *waitstateKernel) Finish() ([]*Set, error) {
	return []*Set{{PAG: k.in.PAG, V: sortKeyed(k.ks)}}, nil
}
