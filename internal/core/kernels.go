package core

import (
	"slices"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// Scan kernels: the per-vertex forms of the fusable built-in passes. Each
// kernel is one pass's loop body lifted out of its standalone function so
// the planner can drive several kernels from a single shared sweep over the
// input set. Every Finish reproduces the standalone pass's output
// construction exactly — same ordering, same cloning, same sort — which is
// what keeps planned and unplanned reports byte-identical.

// keyed pairs a vertex with its sort key so ordering kernels can sort over
// values cached during the shared sweep instead of re-reading the metric
// column O(n log n) times inside the comparator.
type keyed struct {
	id  graph.VertexID
	val float64
}

// sortKeyed orders ks by (val descending, id ascending) — exactly
// Set.SortBy's total order — and returns the IDs in that order. The id
// tiebreak makes the order total (two entries only compare equal when both
// id and val match, and such entries are interchangeable), so the sorted
// permutation is unique and an unstable sort renders the same bytes as
// SortBy's stable sort. Each val must be the key the standalone pass would
// read for its id; fusion legality (disjoint Reads/Writes) guarantees no
// fused sibling changes it between the sweep and Finish.
func sortKeyed(ks []keyed) []graph.VertexID {
	slices.SortFunc(ks, cmpKeyed)
	return keyedIDs(ks)
}

// keyedIDs returns the IDs of ks in order (nil when ks is empty).
func keyedIDs(ks []keyed) []graph.VertexID {
	if len(ks) == 0 {
		return nil
	}
	ids := make([]graph.VertexID, len(ks))
	for i := range ks {
		ids[i] = ks[i].id
	}
	return ids
}

// cmpKeyed is Set.SortBy's order as a three-way comparison: val
// descending, id ascending. Negative means a sorts before b.
func cmpKeyed(a, b keyed) int {
	if a.val != b.val {
		if a.val > b.val {
			return -1
		}
		return 1
	}
	if a.id != b.id {
		if a.id < b.id {
			return -1
		}
		return 1
	}
	return 0
}

// topKeyed reduces ks to its n first entries under cmpKeyed, sorted — the
// planner's top-k traversal for sort_by(m).top(n). A bounded worst-at-root
// heap holds the n best seen; each remaining entry displaces the root only
// when it sorts before it. O(len·log n) instead of the full sort's
// O(len·log len), with the same unique result: cmpKeyed is total, so the
// sorted top-n is the same set in the same order however it is selected.
func topKeyed(ks []keyed, n int) []keyed {
	if n >= len(ks) {
		slices.SortFunc(ks, cmpKeyed)
		return ks
	}
	h := ks[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for _, e := range ks[n:] {
		if cmpKeyed(e, h[0]) < 0 {
			h[0] = e
			siftWorst(h, 0)
		}
	}
	slices.SortFunc(h, cmpKeyed)
	return h
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

// hotspotKernel is Hotspot (sort_by(m).top(n)) as a kernel: the scan
// collects each vertex and its metric value, Finish sorts the cached keys
// and truncates exactly like SortBy+Top (stable, descending, ties to the
// lower ID, edges carried through unchanged). Caching the key during the
// sweep is the planner's decorate-sort traversal: one column read per
// vertex instead of two per comparison.
type hotspotKernel struct {
	in  *Set
	col []float64 // the metric's vertex column; nil reads 0
	n   int
	ks  []keyed
}

func newHotspotKernel(in *Set, metric string, n int) *hotspotKernel {
	return &hotspotKernel{in: in, col: in.PAG.G.VertexMetricColumn(metric), n: n, ks: make([]keyed, 0, len(in.V))}
}

func (k *hotspotKernel) Visit(_ int, v graph.VertexID) {
	var x float64
	if k.col != nil {
		x = k.col[v]
	}
	k.ks = append(k.ks, keyed{v, x})
}

func (k *hotspotKernel) Finish() ([]*Set, error) {
	return []*Set{{
		PAG: k.in.PAG,
		V:   keyedIDs(topKeyed(k.ks, k.n)),
		E:   append([]graph.EdgeID(nil), k.in.E...),
	}}, nil
}

// imbalanceKernel is Imbalance as a kernel.
type imbalanceKernel struct {
	in        *Set
	vecKey    string
	threshold float64
	ks        []keyed
}

func (k *imbalanceKernel) Visit(_ int, vid graph.VertexID) {
	vert := k.in.PAG.G.Vertex(vid)
	vec := vert.Vec(k.vecKey)
	if len(vec) == 0 {
		return
	}
	n := k.in.PAG.NRanks
	if n < len(vec) {
		n = len(vec)
	}
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
	vert.SetMetric(MetricImbalance, ratio)
	if ratio >= k.threshold {
		k.ks = append(k.ks, keyed{vid, ratio})
	}
}

func (k *imbalanceKernel) Finish() ([]*Set, error) {
	return []*Set{{PAG: k.in.PAG, V: sortKeyed(k.ks)}}, nil
}

// breakdownKernel is Breakdown as a kernel: annotations land on the
// environment during the scan, the output is the input cloned.
type breakdownKernel struct{ in *Set }

func (k *breakdownKernel) Visit(_ int, vid graph.VertexID) {
	vert := k.in.PAG.G.Vertex(vid)
	total := vert.Metric(pag.MetricExclTime)
	wait := vert.Metric(pag.MetricWait)
	transfer := total - wait
	if transfer < 0 {
		transfer = 0
	}
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
	in *Set
	ks []keyed
}

func (k *waitstateKernel) Visit(_ int, vid graph.VertexID) {
	vert := k.in.PAG.G.Vertex(vid)
	if !IsCommVertex(vert) {
		return
	}
	vert.SetAttr(AttrWaitState, WaitClassOf(vert))
	if w := vert.Metric(pag.MetricWait); w > 0 {
		k.ks = append(k.ks, keyed{vid, w})
	}
}

func (k *waitstateKernel) Finish() ([]*Set, error) {
	return []*Set{{PAG: k.in.PAG, V: sortKeyed(k.ks)}}, nil
}
