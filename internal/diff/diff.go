// Package diff implements first-class differential analysis: it condenses a
// collected run into a structured Summary of per-pass facts (hotspots, wait
// classes, data quality, scale), and compares two summaries — before/after,
// N vs. 2N ranks, healthy vs. fault-injected — into a Report of deltas.
//
// The paper treats differential analysis as one pass over two PAGs
// (Listing 4); this package generalizes it into a product surface: the
// Report is machine-readable (JSON), deterministic (virtual-time inputs,
// sorted output), and is the fact source the policy engine
// (internal/policy) asserts over, so `pflow gate` can turn a diff into a
// CI decision.
package diff

import (
	"fmt"
	"math"
	"sort"

	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/graph"
	"perflow/internal/pag"
)

// TopHotspots is the number of per-run hotspot entries a Summary retains.
const TopHotspots = 8

// Hotspot is one expensive vertex of a summarized run.
type Hotspot struct {
	// Name is the vertex name (function, loop, or MPI call).
	Name string `json:"name"`
	// Site is the debug location ("file:line"), disambiguating same-named
	// vertices.
	Site string `json:"site,omitempty"`
	// ExclTime is the exclusive time in virtual µs, summed over ranks.
	ExclTime float64 `json:"etime_us"`
	// AppPct is ExclTime as a percentage of the run's total exclusive time.
	AppPct float64 `json:"app_pct"`
}

// Summary is the structured fact sheet of one collected run — everything
// the differential comparison and the policy engine consume. All
// percentages are of the run's aggregate exclusive time (resource time
// summed over ranks), so they are comparable across scales.
type Summary struct {
	// Label names the run in reports ("a"/"b", a workload name, ...).
	Label string `json:"label,omitempty"`
	// Ranks is the MPI process count of the run.
	Ranks int `json:"ranks"`
	// RuntimeUS is the virtual makespan (max per-rank elapsed time).
	RuntimeUS float64 `json:"runtime_us"`
	// AppTimeUS is the aggregate exclusive time over all vertices and ranks.
	AppTimeUS float64 `json:"app_time_us"`
	// MPIPct is the share of AppTimeUS spent in MPI_* vertices.
	MPIPct float64 `json:"mpi_pct"`
	// WaitPct is the share of AppTimeUS spent blocked, any wait class.
	WaitPct float64 `json:"wait_pct"`
	// LateSenderPct, LateReceiverPct and CollectiveWaitPct split WaitPct by
	// the Scalasca-style wait-state classes of core.WaitClassOf.
	LateSenderPct     float64 `json:"late_sender_pct"`
	LateReceiverPct   float64 `json:"late_receiver_pct"`
	CollectiveWaitPct float64 `json:"collective_wait_pct"`
	// ImbalanceMax is the worst per-vertex max/mean ratio of the per-rank
	// time vectors (1.0 = perfectly balanced; 0 when no vectors exist).
	ImbalanceMax float64 `json:"imbalance_max"`
	// Hotspots are the TopHotspots most expensive vertices by exclusive
	// time.
	Hotspots []Hotspot `json:"hotspots"`

	// Degraded reports incomplete input data (crashed or stalled ranks, or
	// dropped messages).
	Degraded bool `json:"degraded"`
	// CrashedRanks, StalledRanks and SalvagedRanks count ranks by failure
	// mode; DroppedMsgs counts what the network lost. SalvagedRanks and
	// LostEvents read RankStatus fields no code sets, so they stay 0; they
	// are kept as policy facts and report columns.
	CrashedRanks  int `json:"crashed_ranks,omitempty"`
	StalledRanks  int `json:"stalled_ranks,omitempty"`
	SalvagedRanks int `json:"salvaged_ranks,omitempty"`
	DroppedMsgs   int `json:"dropped_msgs,omitempty"`
	LostEvents    int `json:"lost_events,omitempty"`
	// CompleteRankPct is the share of ranks with clean, complete streams.
	CompleteRankPct float64 `json:"complete_rank_pct"`
	// LintFindings counts the top-down vertices carrying attached lint
	// diagnostics.
	LintFindings int `json:"lint_findings,omitempty"`
}

// hotspotKey identifies a vertex across two runs of the same program:
// name plus debug site (two loops may share a name).
func hotspotKey(name, site string) string {
	if site == "" {
		return name
	}
	return name + " @ " + site
}

// Summarize condenses a collected result into its fact sheet. The result's
// top-down view is read only; nothing is mutated, so summarizing commutes
// with every analysis pass.
func Summarize(res *collector.Result, label string) *Summary {
	s := &Summary{Label: label, CompleteRankPct: 100}
	if res == nil || res.TopDown == nil {
		return s
	}
	env := res.TopDown
	s.Ranks = env.NRanks
	if res.Run != nil {
		s.RuntimeUS = res.Run.TotalTime()
	}

	type agg struct {
		name, site string
		excl       float64
	}
	var (
		all      []agg
		mpiTime  float64
		waitSums = map[string]float64{}
	)
	n := env.G.NumVertices()
	for i := 0; i < n; i++ {
		v := env.G.Vertex(graph.VertexID(i))
		excl := v.Metric(pag.MetricExclTime)
		s.AppTimeUS += excl
		if excl > 0 {
			all = append(all, agg{v.Name, v.Attr(pag.AttrDebug), excl})
		}
		if core.IsCommVertex(v) {
			mpiTime += excl
			if wait := v.Metric(pag.MetricWait); wait > 0 {
				waitSums[core.WaitClassOf(v)] += wait
			}
		}
		if vec := v.Vec(pag.MetricTime + "_vec"); len(vec) > 0 {
			if r := imbalanceRatio(vec, env.NRanks); r > s.ImbalanceMax {
				s.ImbalanceMax = r
			}
		}
		if v.Attr(pag.AttrLint) != "" {
			s.LintFindings++
		}
	}

	if s.AppTimeUS > 0 {
		pct := func(x float64) float64 { return 100 * x / s.AppTimeUS }
		s.MPIPct = pct(mpiTime)
		s.LateSenderPct = pct(waitSums["late-sender"])
		s.LateReceiverPct = pct(waitSums["late-receiver"])
		s.CollectiveWaitPct = pct(waitSums["wait-at-collective"])
		s.WaitPct = s.LateSenderPct + s.LateReceiverPct + s.CollectiveWaitPct
	}

	// Deterministic hotspot order: exclusive time descending, then key.
	sort.Slice(all, func(i, j int) bool {
		if all[i].excl != all[j].excl {
			return all[i].excl > all[j].excl
		}
		return hotspotKey(all[i].name, all[i].site) < hotspotKey(all[j].name, all[j].site)
	})
	for i := 0; i < len(all) && i < TopHotspots; i++ {
		h := Hotspot{Name: all[i].name, Site: all[i].site, ExclTime: round2(all[i].excl)}
		if s.AppTimeUS > 0 {
			h.AppPct = round2(100 * all[i].excl / s.AppTimeUS)
		}
		s.Hotspots = append(s.Hotspots, h)
	}

	if c := res.Coverage; c != nil {
		s.Degraded = c.Degraded()
		s.CrashedRanks = len(c.Crashed)
		s.StalledRanks = len(c.Stalled)
		s.SalvagedRanks = len(c.Salvaged)
		s.DroppedMsgs = c.DroppedMsgs
		s.LostEvents = c.LostEvents
		if c.NRanks > 0 {
			s.CompleteRankPct = round2(100 * float64(c.Complete) / float64(c.NRanks))
		}
	}

	s.RuntimeUS = round2(s.RuntimeUS)
	s.AppTimeUS = round2(s.AppTimeUS)
	s.MPIPct = round2(s.MPIPct)
	s.WaitPct = round2(s.WaitPct)
	s.LateSenderPct = round2(s.LateSenderPct)
	s.LateReceiverPct = round2(s.LateReceiverPct)
	s.CollectiveWaitPct = round2(s.CollectiveWaitPct)
	s.ImbalanceMax = round2(s.ImbalanceMax)
	return s
}

// imbalanceRatio is max/mean of a per-rank vector padded to nranks entries
// (a vertex observed on 3 of 128 ranks counts as imbalanced).
func imbalanceRatio(vec []float64, nranks int) float64 {
	n := nranks
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
		return 0
	}
	return maxv / (sum / float64(n))
}

// round2 rounds to two decimals so reports and JSON are stable under
// float formatting differences.
func round2(x float64) float64 { return math.Round(x*100) / 100 }

// HotspotDelta is one vertex's change between the two runs, matched by
// name plus debug site.
type HotspotDelta struct {
	Name string `json:"name"`
	Site string `json:"site,omitempty"`
	// AUS and BUS are the exclusive times (virtual µs) in each run; a zero
	// with Appeared/Vanished set means the vertex exists in only one run.
	AUS float64 `json:"a_us"`
	BUS float64 `json:"b_us"`
	// DeltaUS is BUS-AUS; DeltaPct is the change relative to AUS (or 100
	// for appeared vertices).
	DeltaUS  float64 `json:"delta_us"`
	DeltaPct float64 `json:"delta_pct"`
	// Appeared/Vanished flag vertices present in exactly one run.
	Appeared bool `json:"appeared,omitempty"`
	Vanished bool `json:"vanished,omitempty"`
}

// Report is the structured outcome of comparing run A (baseline) to run B
// (candidate). Every field is deterministic for deterministic inputs.
type Report struct {
	A *Summary `json:"a"`
	B *Summary `json:"b"`

	// RankRatio is B.Ranks / A.Ranks (1 for same-scale diffs).
	RankRatio float64 `json:"rank_ratio"`
	// Speedup is A.RuntimeUS / B.RuntimeUS: >1 means B is faster.
	Speedup float64 `json:"speedup"`
	// Efficiency is Speedup / RankRatio — parallel efficiency for scale
	// diffs, plain speedup for same-scale diffs. The policy fact
	// `speedup_at(2x)` reads Speedup after checking RankRatio == 2.
	Efficiency float64 `json:"efficiency"`
	// RuntimeDeltaPct is the relative makespan change, B vs. A.
	RuntimeDeltaPct float64 `json:"runtime_delta_pct"`
	// WaitDeltaPct / LateSenderDeltaPct / MPIDeltaPct are B-A differences
	// of the corresponding Summary percentages (points, not ratios).
	WaitDeltaPct       float64 `json:"wait_delta_pct"`
	LateSenderDeltaPct float64 `json:"late_sender_delta_pct"`
	MPIDeltaPct        float64 `json:"mpi_delta_pct"`
	// ImbalanceDelta is B-A of the worst imbalance ratio.
	ImbalanceDelta float64 `json:"imbalance_delta"`

	// Hotspots are the largest per-vertex exclusive-time changes, ordered
	// by |DeltaUS| descending (ties by key), capped at TopHotspots entries.
	Hotspots []HotspotDelta `json:"hotspots"`

	// DataQualityRegressed is set when B's input data is degraded in a way
	// A's was not (new crashes, stalls, drops, or lost events).
	DataQualityRegressed bool `json:"data_quality_regressed"`
}

// Compute compares two collected runs of the same program. A is the
// baseline (before / small scale / healthy), B the candidate (after /
// large scale / degraded).
func Compute(a, b *collector.Result) *Report {
	return FromSummaries(Summarize(a, "a"), Summarize(b, "b"), hotspotTimes(a), hotspotTimes(b))
}

// hotspotTimes aggregates exclusive time by hotspot key over the whole
// top-down view, the matching basis for per-vertex deltas.
func hotspotTimes(res *collector.Result) map[string]hotspotEntry {
	out := map[string]hotspotEntry{}
	if res == nil || res.TopDown == nil {
		return out
	}
	g := res.TopDown.G
	for i := 0; i < g.NumVertices(); i++ {
		v := g.Vertex(graph.VertexID(i))
		excl := v.Metric(pag.MetricExclTime)
		if excl <= 0 {
			continue
		}
		key := hotspotKey(v.Name, v.Attr(pag.AttrDebug))
		e := out[key]
		e.name, e.site = v.Name, v.Attr(pag.AttrDebug)
		e.excl += excl
		out[key] = e
	}
	return out
}

type hotspotEntry struct {
	name, site string
	excl       float64
}

// FromSummaries assembles a Report from precomputed summaries and
// per-vertex time maps; Compute is the usual entry point.
func FromSummaries(a, b *Summary, atimes, btimes map[string]hotspotEntry) *Report {
	r := &Report{A: a, B: b, RankRatio: 1}
	if a.Ranks > 0 && b.Ranks > 0 {
		r.RankRatio = round2(float64(b.Ranks) / float64(a.Ranks))
	}
	if b.RuntimeUS > 0 {
		r.Speedup = round2(a.RuntimeUS / b.RuntimeUS)
	}
	if r.RankRatio > 0 {
		r.Efficiency = round2(r.Speedup / r.RankRatio)
	}
	if a.RuntimeUS > 0 {
		r.RuntimeDeltaPct = round2(100 * (b.RuntimeUS - a.RuntimeUS) / a.RuntimeUS)
	}
	r.WaitDeltaPct = round2(b.WaitPct - a.WaitPct)
	r.LateSenderDeltaPct = round2(b.LateSenderPct - a.LateSenderPct)
	r.MPIDeltaPct = round2(b.MPIPct - a.MPIPct)
	r.ImbalanceDelta = round2(b.ImbalanceMax - a.ImbalanceMax)
	r.DataQualityRegressed = b.CrashedRanks > a.CrashedRanks ||
		b.StalledRanks > a.StalledRanks || b.SalvagedRanks > a.SalvagedRanks ||
		b.DroppedMsgs > a.DroppedMsgs || b.LostEvents > a.LostEvents

	// Union of keys, deltas sorted by magnitude.
	keys := make([]string, 0, len(atimes)+len(btimes))
	seen := map[string]bool{}
	for k := range atimes {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range btimes {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	deltas := make([]HotspotDelta, 0, len(keys))
	for _, k := range keys {
		ae, aok := atimes[k]
		be, bok := btimes[k]
		d := HotspotDelta{AUS: round2(ae.excl), BUS: round2(be.excl)}
		if aok {
			d.Name, d.Site = ae.name, ae.site
		} else {
			d.Name, d.Site = be.name, be.site
		}
		d.DeltaUS = round2(be.excl - ae.excl)
		switch {
		case !aok:
			d.Appeared, d.DeltaPct = true, 100
		case !bok:
			d.Vanished, d.DeltaPct = true, -100
		case ae.excl > 0:
			d.DeltaPct = round2(100 * (be.excl - ae.excl) / ae.excl)
		}
		deltas = append(deltas, d)
	}
	sort.SliceStable(deltas, func(i, j int) bool {
		ai, aj := math.Abs(deltas[i].DeltaUS), math.Abs(deltas[j].DeltaUS)
		if ai != aj {
			return ai > aj
		}
		return hotspotKey(deltas[i].Name, deltas[i].Site) < hotspotKey(deltas[j].Name, deltas[j].Site)
	})
	if len(deltas) > TopHotspots {
		deltas = deltas[:TopHotspots]
	}
	r.Hotspots = deltas
	return r
}

// MaxHotspotGrowthPct is the largest positive per-vertex growth (percent,
// relative to A) among the report's hotspot deltas — the policy fact
// `hotspot_growth_max_pct`.
func (r *Report) MaxHotspotGrowthPct() float64 {
	var m float64
	for _, d := range r.Hotspots {
		if d.DeltaPct > m {
			m = d.DeltaPct
		}
	}
	return m
}

// Fact resolves a differential fact by name for the policy engine:
//
//	speedup, efficiency, linear, rank_ratio, runtime_delta_pct,
//	wait_delta_pct, late_sender_delta_pct, mpi_delta_pct,
//	imbalance_delta, hotspot_growth_max_pct, data_quality_regressed,
//	speedup_at(Nx)
//
// plus any Summary fact prefixed with "a." or "b.". Unknown names return
// an error (the gate reports it as an evaluation error, not a violation).
func (r *Report) Fact(name string, args []string) (float64, error) {
	switch name {
	case "speedup":
		return r.Speedup, nil
	case "efficiency":
		return r.Efficiency, nil
	case "linear", "rank_ratio":
		return r.RankRatio, nil
	case "runtime_delta_pct":
		return r.RuntimeDeltaPct, nil
	case "wait_delta_pct":
		return r.WaitDeltaPct, nil
	case "late_sender_delta_pct":
		return r.LateSenderDeltaPct, nil
	case "mpi_delta_pct":
		return r.MPIDeltaPct, nil
	case "imbalance_delta":
		return r.ImbalanceDelta, nil
	case "hotspot_growth_max_pct":
		return r.MaxHotspotGrowthPct(), nil
	case "data_quality_regressed":
		return boolFact(r.DataQualityRegressed), nil
	case "speedup_at":
		if len(args) != 1 {
			return 0, fmt.Errorf("speedup_at needs one argument, e.g. speedup_at(2x)")
		}
		want, err := parseScaleArg(args[0])
		if err != nil {
			return 0, err
		}
		if math.Abs(r.RankRatio-want) > 1e-9 {
			return 0, fmt.Errorf("speedup_at(%s): diff is at %gx ranks, not %gx", args[0], r.RankRatio, want)
		}
		return r.Speedup, nil
	}
	if len(name) > 2 && (name[:2] == "a." || name[:2] == "b.") {
		s := r.A
		if name[:2] == "b." {
			s = r.B
		}
		return s.Fact(name[2:], args)
	}
	return 0, fmt.Errorf("unknown differential fact %q", name)
}

// parseScaleArg parses "2x", "2", or "1.5x" into a rank ratio.
func parseScaleArg(s string) (float64, error) {
	if len(s) > 1 && (s[len(s)-1] == 'x' || s[len(s)-1] == 'X') {
		s = s[:len(s)-1]
	}
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil || v <= 0 {
		return 0, fmt.Errorf("bad scale %q (want e.g. 2x)", s)
	}
	return v, nil
}

func boolFact(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Fact resolves a single-run fact by name for the policy engine:
//
//	ranks, runtime_us, app_time_us, mpi_pct, wait_pct,
//	late_sender_wait_pct, late_receiver_wait_pct, collective_wait_pct,
//	imbalance_max, degraded, crashed_ranks, stalled_ranks,
//	salvaged_ranks, dropped_msgs, lost_events, complete_rank_pct,
//	lint_findings, hotspot_share(pattern)
func (s *Summary) Fact(name string, args []string) (float64, error) {
	switch name {
	case "ranks":
		return float64(s.Ranks), nil
	case "runtime_us":
		return s.RuntimeUS, nil
	case "app_time_us":
		return s.AppTimeUS, nil
	case "mpi_pct":
		return s.MPIPct, nil
	case "wait_pct":
		return s.WaitPct, nil
	case "late_sender_wait_pct":
		return s.LateSenderPct, nil
	case "late_receiver_wait_pct":
		return s.LateReceiverPct, nil
	case "collective_wait_pct":
		return s.CollectiveWaitPct, nil
	case "imbalance_max":
		return s.ImbalanceMax, nil
	case "degraded":
		return boolFact(s.Degraded), nil
	case "crashed_ranks":
		return float64(s.CrashedRanks), nil
	case "stalled_ranks":
		return float64(s.StalledRanks), nil
	case "salvaged_ranks":
		return float64(s.SalvagedRanks), nil
	case "dropped_msgs":
		return float64(s.DroppedMsgs), nil
	case "lost_events":
		return float64(s.LostEvents), nil
	case "complete_rank_pct":
		return s.CompleteRankPct, nil
	case "lint_findings":
		return float64(s.LintFindings), nil
	case "hotspot_share":
		if len(args) != 1 {
			return 0, fmt.Errorf("hotspot_share needs one pattern argument, e.g. hotspot_share(MPI_*)")
		}
		var share float64
		for _, h := range s.Hotspots {
			if core.GlobMatch(args[0], h.Name) {
				share += h.AppPct
			}
		}
		return round2(share), nil
	}
	return 0, fmt.Errorf("unknown run fact %q", name)
}
