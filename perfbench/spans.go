package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"perflow"
	"perflow/internal/ir"
	"perflow/internal/pag"
	"perflow/internal/trace"
)

// A span is one timed call into a layer's public API, recorded by the
// benchmark around the call; the program itself is not instrumented. Spans
// of one request share its index. A span's children are the spans that
// split its time: calls made inside it, or replays of its stages on the
// same inputs (the collector's stages, the serve journal's appends).
type span struct {
	name   string // "<layer>.<op>", e.g. "mpisim.run"
	req    int
	parent int // index of the parent span, -1 for a request-level span
	dur    time.Duration
	alloc  uint64 // heap bytes allocated during the span
}

// spanLog keeps a traced run's spans and per-request values in memory.
type spanLog struct {
	spans []span
	// vals holds per-request metric values: vals[name][req].
	vals map[string]map[int]float64
	// wall is the summed request wall time of the traced path; the spans
	// attribute it to layers.
	wall     time.Duration
	requests int
	// costTraced and costUntraced compare the traced path with the
	// untraced one over the same requests, for the tracing overhead.
	costTraced, costUntraced time.Duration
	// diverged counts stage replays that did not reproduce the call they
	// split.
	diverged int
}

func newSpanLog() *spanLog { return &spanLog{vals: map[string]map[int]float64{}} }

// add records a finished span and folds its duration into the request's
// "<name>_ms" value. It returns the span's index for use as a parent.
func (l *spanLog) add(name string, req, parent int, dur time.Duration, alloc uint64) int {
	l.spans = append(l.spans, span{name: name, req: req, parent: parent, dur: dur, alloc: alloc})
	l.val(name+"_ms", req, ms(dur))
	return len(l.spans) - 1
}

// timed runs fn as a span and returns the span's index.
func (l *spanLog) timed(name string, req, parent int, fn func()) int {
	a0 := heapAllocs()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	return l.add(name, req, parent, d, heapAllocs()-a0)
}

// val adds v to the request's value of the named metric.
func (l *spanLog) val(name string, req int, v float64) {
	m := l.vals[name]
	if m == nil {
		m = map[int]float64{}
		l.vals[name] = m
	}
	m[req] += v
}

// request accounts one request's traced and untraced wall times.
func (l *spanLog) request(traced, untraced time.Duration) {
	l.requests++
	l.wall += traced
	l.costTraced += traced
	l.costUntraced += untraced
}

// medians returns, for each per-layer metric, the median over the requests
// that have a value for it; metrics no request touched read 0.
func (l *spanLog) medians() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		var xs []float64
		for _, v := range l.vals[d.name] {
			xs = append(xs, v)
		}
		out[d.name] = median(xs)
	}
	return out
}

// overheadFrac is the traced path's wall time over the untraced path's on
// the same requests, minus one.
func (l *spanLog) overheadFrac() float64 {
	if l.costUntraced <= 0 {
		return 0
	}
	return float64(l.costTraced-l.costUntraced) / float64(l.costUntraced)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerRow is one row of the breakdown: a layer's or one span name's self
// time, span count and self allocations over the whole run.
type layerRow struct {
	name  string
	self  time.Duration
	count int
	alloc uint64
}

type breakdown struct {
	layers, ops      []layerRow // sorted by self time, descending
	total            time.Duration
	wall             time.Duration
	requests         int
	unattributedFrac float64
	overheadFrac     float64
	diverged         int
	dominant         string
	selfHostTop      string
}

// selfTimes returns each span's duration minus its children's (clamped at
// zero, since a replayed child can outlast the call it splits) and the
// same for allocations.
func (l *spanLog) selfTimes() ([]time.Duration, []uint64) {
	self := make([]time.Duration, len(l.spans))
	alloc := make([]uint64, len(l.spans))
	for i, s := range l.spans {
		self[i] = s.dur
		alloc[i] = s.alloc
	}
	for _, s := range l.spans {
		if s.parent >= 0 {
			self[s.parent] -= s.dur
			if alloc[s.parent] >= s.alloc {
				alloc[s.parent] -= s.alloc
			} else {
				alloc[s.parent] = 0
			}
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self, alloc
}

// breakdown aggregates self times per layer and per span name, names the
// dominant layer, and runs the self-hosting check.
func (l *spanLog) breakdown() (*breakdown, error) {
	self, alloc := l.selfTimes()
	byLayer := map[string]*layerRow{}
	byOp := map[string]*layerRow{}
	var topLevel time.Duration
	bd := &breakdown{wall: l.wall, requests: l.requests, overheadFrac: l.overheadFrac(), diverged: l.diverged}
	for i, s := range l.spans {
		for _, agg := range []struct {
			m   map[string]*layerRow
			key string
		}{{byLayer, layerOf(s.name)}, {byOp, s.name}} {
			r := agg.m[agg.key]
			if r == nil {
				r = &layerRow{name: agg.key}
				agg.m[agg.key] = r
			}
			r.self += self[i]
			r.count++
			r.alloc += alloc[i]
		}
		bd.total += self[i]
		if s.parent < 0 {
			topLevel += s.dur
		}
	}
	bd.layers = sortedRows(byLayer)
	bd.ops = sortedRows(byOp)
	if l.wall > 0 {
		bd.unattributedFrac = float64(l.wall-topLevel) / float64(l.wall)
	}
	if len(bd.layers) == 0 {
		return nil, fmt.Errorf("traced run recorded no spans")
	}
	bd.dominant = bd.layers[0].name
	top, err := selfHostedHotspot(l.spans, self)
	if err != nil {
		return nil, fmt.Errorf("self-hosting check: %w", err)
	}
	bd.selfHostTop = top
	return bd, nil
}

func sortedRows(m map[string]*layerRow) []layerRow {
	rows := make([]layerRow, 0, len(m))
	for _, r := range m {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

func (b *breakdown) selfHostAgrees() bool { return b.selfHostTop == b.dominant }

// write renders the traced-run report: each layer's self time, share, span
// count and allocations, then the measurement-validity figures.
func (b *breakdown) write(w io.Writer, workload string, seed int64) {
	fmt.Fprintf(w, "== traced breakdown: %s, seed %d, %d requests, traced wall %.1f ms ==\n",
		workload, seed, b.requests, ms(b.wall))
	fmt.Fprintf(w, "%-28s %12s %7s %8s %11s\n", "layer", "self_ms", "share", "count", "alloc_mb")
	for _, r := range b.layers {
		b.writeRow(w, r.name, r)
		for _, op := range b.ops {
			if layerOf(op.name) == r.name && op.name != r.name {
				b.writeRow(w, "  "+op.name, op)
			}
		}
	}
	fmt.Fprintf(w, "trace.unattributed_frac=%.4f trace.overhead_frac=%.4f\n", b.unattributedFrac, b.overheadFrac)
	if b.diverged > 0 {
		fmt.Fprintf(w, "FAILED: %d stage replays did not reproduce the call they split\n", b.diverged)
	}
	fmt.Fprintf(w, "dominant layer: %s (%.1f%% of self time); self-hosted HotspotDetection top vertex: %s\n",
		b.dominant, 100*b.share(b.layers[0].self), b.selfHostTop)
}

func (b *breakdown) writeRow(w io.Writer, label string, r layerRow) {
	fmt.Fprintf(w, "%-28s %12.3f %6.2f%% %8d %11.3f\n", label, ms(r.self), 100*b.share(r.self), r.count, float64(r.alloc)/(1<<20))
}

func (b *breakdown) share(d time.Duration) float64 {
	if b.total <= 0 {
		return 0
	}
	return float64(d) / float64(b.total)
}

// selfHostedHotspot is the self-hosting check: it converts the spans into a
// trace.Run of a one-rank program whose main function holds one compute
// block per layer, each span becoming one event of its self time laid end
// to end, then embeds the run into a top-down PAG and asks PerFlow's own
// HotspotDetection for the most expensive vertex.
func selfHostedHotspot(spans []span, self []time.Duration) (string, error) {
	var layers []string
	seen := map[string]bool{}
	for _, s := range spans {
		if l := layerOf(s.name); !seen[l] {
			seen[l] = true
			layers = append(layers, l)
		}
	}
	sort.Strings(layers)
	prog, err := ir.NewBuilder("perfbench").Func("main", "perfbench.go", 1, func(b *ir.Body) {
		for i, l := range layers {
			b.Compute(l, i+2, ir.Const(1))
		}
	}).Build()
	if err != nil {
		return "", err
	}
	mainFn := prog.Function("main")
	cct := trace.NewCCT()
	mainCtx := cct.Intern(trace.NoCtx, mainFn.ID())
	nodeOf := map[string]ir.NodeID{}
	ctxOf := map[string]trace.CtxID{}
	for _, n := range mainFn.Body {
		info := ir.InfoOf(n)
		nodeOf[info.Name] = info.ID()
		ctxOf[info.Name] = cct.Intern(mainCtx, info.ID())
	}
	events := make([]trace.Event, 0, len(spans))
	var clock float64 // virtual µs
	for i, s := range spans {
		l := layerOf(s.name)
		d := float64(self[i]) / float64(time.Microsecond)
		events = append(events, trace.Event{
			Rank: 0, Thread: -1, Kind: trace.KindCompute,
			Node: nodeOf[l], Ctx: ctxOf[l], Start: clock, End: clock + d,
		})
		clock += d
	}
	run := &trace.Run{Program: prog, NRanks: 1, ThreadsPerRank: 1, CCT: cct,
		Events: [][]trace.Event{events}, Elapsed: []float64{clock}}
	td := pag.BuildTopDown(prog)
	td.EmbedRun(run, pag.PMUModel{})
	res := &perflow.Result{TopDown: td, Run: run}
	hot := perflow.New().HotspotDetection(perflow.TopDownSet(res), 1)
	if hot.Len() == 0 {
		return "", fmt.Errorf("HotspotDetection returned no vertex")
	}
	return hot.Names()[0], nil
}
